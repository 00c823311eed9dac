// The serve workloads: serve_light (50k jobs/s) and serve_heavy (100k
// jobs/s) through one job_server.
//
// An open loop: one generator thread, pinned to the last CPU, sends a
// seeded Poisson stream of jobs, a third each fib(14) as a serial leaf,
// qsort of 192 doubles, and spmv of a 64-row matrix with 8 entries per row
// (grain 16). Two runtimes split the other CPUs (runtime_set::partitioned):
// rt0 serves the qsort and spmv tenants, rt1 the fib tenant. A job's latency
// runs from its scheduled send time to the timestamp the job takes as it
// finishes, so a stalled generator's lateness counts against every job it
// delayed. Admission blocks when a tenant's 1024-job queue is full: a host
// stall then holds the generator back and shows up as latency instead of
// refused jobs. Calibration jobs also sample the job-sized host reference
// on the worker that runs them, which is pinned to a CPU no other thread of
// the server or the generator uses; set-up time and latency are reported at
// the nominal host speed (suite.hpp), with the raw values under detail.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/slab.hpp"
#include "pedigree/pedigree.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/serial.hpp"
#include "serve/job_server.hpp"
#include "serve/runtime_set.hpp"
#include "suite.hpp"
#include "support/rng.hpp"
#include "support/timing.hpp"
#include "workloads/fib.hpp"
#include "workloads/qsort.hpp"
#include "workloads/sparse.hpp"
#include "workloads/spmv.hpp"

namespace cilkbench {
namespace {

using namespace cilkpp;

/// Job kinds double as tenant indices.
enum job_kind : std::uint8_t { fib_job = 0, qsort_job = 1, spmv_job = 2 };
constexpr std::size_t kinds = 3;
constexpr const char* kind_names[kinds] = {"fib", "qsort", "spmv"};
constexpr std::size_t variants = 64;  ///< distinct qsort inputs
constexpr double warmup_s = 1.0;
/// Latency statistics are taken over slices of the window this long: short
/// enough that the quiet stretches between host stalls fill whole slices.
constexpr double slice_s = 0.1;
/// Window job i is traced when i % sample_every == 0 (its four segments
/// are timed) and a calibration job when i % sample_every == calibrate_at.
constexpr std::size_t sample_every = 64;
constexpr std::size_t calibrate_at = sample_every / 2;

/// Inputs the jobs read (never written while jobs run) and their expected
/// results.
struct job_inputs {
  explicit job_inputs(std::uint64_t seed)
      : matrix(workloads::random_sparse_matrix(64, 8, ped::mix(seed, 0x73706d76))) {
    for (std::size_t v = 0; v < variants; ++v) {
      arrays.push_back(workloads::random_doubles(192, ped::mix(seed, v)));
    }
    xoshiro256 rng(ped::mix(seed, 0x78));
    x.resize(matrix.rows());
    for (double& xi : x) xi = rng.unit();
  }
  void make_oracle() {
    minima.clear();
    for (const std::vector<double>& a : arrays) {
      minima.push_back(*std::min_element(a.begin(), a.end()));
    }
    y0 = workloads::spmv_serial(matrix, x)[0];
  }

  std::vector<std::vector<double>> arrays;
  workloads::csr matrix;
  std::vector<double> x;
  std::vector<double> minima;
  double y0 = 0.0;
};

/// One job, written once against the engine-generic workloads so the same
/// code runs on the server and under the serial elision. True iff the
/// result is correct.
template <typename Ctx>
bool run_job(Ctx& ctx, job_kind kind, std::size_t variant, const job_inputs& in) {
  switch (kind) {
    case fib_job:
      return workloads::fib(ctx, 14, 14) == 377;
    case qsort_job: {
      std::vector<double> v = in.arrays[variant];
      workloads::qsort(ctx, v.begin(), v.end());
      return v.front() == in.minima[variant];
    }
    case spmv_job: {
      const double y = workloads::spmv(ctx, in.matrix, in.x, 16)[0];
      return std::memcmp(&y, &in.y0, sizeof y) == 0;
    }
  }
  return false;
}

/// A seeded Poisson arrival stream: send offsets from the phase start, and
/// each job's kind and input variant.
struct schedule {
  schedule(double rate, double seconds, std::uint64_t seed) {
    xoshiro256 rng(seed);
    const double mean_gap_ns = 1e9 / rate;
    double t = 0.0;
    for (;;) {
      t += -std::log(1.0 - rng.unit()) * mean_gap_ns;
      if (t >= seconds * 1e9) break;
      due_ns.push_back(static_cast<std::uint64_t>(t));
      kind.push_back(static_cast<job_kind>(rng.below(kinds)));
      variant.push_back(static_cast<std::uint8_t>(rng.below(variants)));
    }
  }
  std::size_t size() const { return due_ns.size(); }

  std::vector<std::uint64_t> due_ns;
  std::vector<job_kind> kind;
  std::vector<std::uint8_t> variant;
};

enum class job_status : std::uint8_t { pending, ok, wrong };

/// Written by the job while it runs; read after drain(). A job admission
/// refused stays pending, and check_records fails it.
struct job_record {
  std::uint64_t start_ns = 0;
  std::uint64_t finish_ns = 0;
  std::uint32_t serial_ns = 0;     ///< calibration jobs: the elision's time
  std::uint32_t reference_ns = 0;  ///< calibration jobs: job_reference_ns()
  job_status status = job_status::pending;
};

/// Generator-side timestamps of a traced job.
struct job_sample {
  std::size_t job = 0;
  std::uint64_t call_ns = 0;    ///< try_submit called
  std::uint64_t return_ns = 0;  ///< try_submit returned (traced runs only)
};

std::vector<serve::tenant_options> tenants() {
  std::vector<serve::tenant_options> t(kinds);
  t[fib_job] = {.name = "fib", .runtime = 1, .queue_capacity = 1024,
                .policy = serve::admission::block, .batch_max = 64};
  t[qsort_job] = {.name = "qsort", .runtime = 0, .queue_capacity = 1024,
                  .policy = serve::admission::block, .batch_max = 32};
  t[spmv_job] = {.name = "spmv", .runtime = 0, .queue_capacity = 1024,
                 .policy = serve::admission::block, .batch_max = 32};
  return t;
}

/// Everything set-up builds. Member order matters: the server is destroyed
/// (and drained) before the runtimes, and both before the inputs its jobs
/// point at. The records the jobs write must outlive it too.
struct serve_state {
  explicit serve_state(const options& opt)
      : inputs(opt.seed),
        set(serve::runtime_set::partitioned(2, 0, std::max(1u, cpu_count() - 1))),
        srv(set, tenants()) {}

  /// Sends the phase's jobs at their scheduled times from `base`. In the
  /// window (samples non-null), every sample_every-th job is traced, and
  /// calibration jobs first time the job reference and their own serial
  /// elision on the worker that runs them, which measures the host and
  /// prices the runtime on the same CPU at the same moment.
  void send(const schedule& s, std::vector<job_record>& records, std::uint64_t base,
            std::vector<job_sample>* samples, bool traced) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      const std::uint64_t due = base + s.due_ns[i];
      std::uint64_t t = now_ns();
      while (t < due) t = now_ns();
      job_record* rec = &records[i];
      const job_kind kind = s.kind[i];
      const std::size_t variant = s.variant[i];
      const bool calibrate = samples != nullptr && i % sample_every == calibrate_at;
      const job_inputs* in = &inputs;
      auto job = [rec, kind, variant, calibrate, in](rt::context& ctx) {
        bool ok = true;
        if (calibrate) {
          rec->reference_ns = static_cast<std::uint32_t>(job_reference_ns());
          const std::uint64_t s0 = now_ns();
          rt::serial_context sc;
          ok = run_job(sc, kind, variant, *in);
          rec->serial_ns = static_cast<std::uint32_t>(now_ns() - s0);
        }
        rec->start_ns = now_ns();
        ok = run_job(ctx, kind, variant, *in) && ok;
        rec->status = ok ? job_status::ok : job_status::wrong;
        rec->finish_ns = now_ns();
        return rec->finish_ns;
      };
      (void)srv.try_submit(kind, std::move(job));
      if (samples != nullptr && i % sample_every == 0) {
        samples->push_back({i, t, traced ? now_ns() : 0});
      }
    }
  }

  job_inputs inputs;
  serve::runtime_set set;
  serve::job_server srv;
};

void check_records(result& r, const std::vector<job_record>& records) {
  for (const job_record& rec : records) {
    switch (rec.status) {
      case job_status::ok: r.check(true, ""); break;
      case job_status::wrong:
        r.check(false, "serve job returned a wrong result");
        break;
      case job_status::pending:
        r.check(false, "serve job was refused or never ran");
        break;
    }
  }
}

/// Each slice's q-quantile, for slices that hold any job.
std::vector<double> per_slice(std::vector<std::vector<double>>& slices, double q) {
  std::vector<double> out;
  for (std::vector<double>& s : slices) {
    if (s.empty()) continue;
    std::sort(s.begin(), s.end());
    out.push_back(quantile_sorted(s, q));
  }
  return out;
}

/// The lower quartile over slices of each slice's q-quantile. A stall of the
/// shared host raises the latency of the slices it hits and never lowers
/// any, so the quieter slices measure the server; a change to the server
/// moves every slice.
double across_slices(std::vector<std::vector<double>>& slices, double q) {
  return summarize(per_slice(slices, q)).q1;
}

result run_serve(const options& opt, double rate) {
  result r;
  r.workload = opt.workload;

  // The arrival schedules and the records the jobs fill in belong to the
  // load generator, not the server, so they are built before set-up. At
  // 100k jobs/s they take longer to build than the server does.
  const schedule warm(rate, warmup_s, ped::mix(opt.seed, 0x7761726d));
  const schedule window(rate, opt.seconds, ped::mix(opt.seed, 0x77696e64));
  std::vector<job_record> warm_records(warm.size());
  std::vector<job_record> window_records(window.size());

  // Set-up: the job inputs, the runtimes and the server, and a first
  // warm-up burst of 64 jobs per kind, awaited together. It takes under a
  // millisecond, mostly starting threads, so it is done 25 times; the
  // median is setup_s and the last instance is kept.
  constexpr int setups = 25;
  std::vector<double> setup_s;
  std::unique_ptr<serve_state> st;
  for (int i = 0; i < setups; ++i) {
    st.reset();
    const std::uint64_t t0 = now_ns();
    st = std::make_unique<serve_state>(opt);
    const std::uint64_t o0 = now_ns();
    st->inputs.make_oracle();
    const std::uint64_t oracle_ns = now_ns() - o0;
    std::vector<std::future<bool>> burst;
    for (std::size_t k = 0; k < kinds; ++k) {
      for (std::size_t j = 0; j < 64; ++j) {
        const job_inputs* in = &st->inputs;
        const auto kind = static_cast<job_kind>(k);
        burst.push_back(st->srv.submit(k, [in, kind, j](rt::context& ctx) {
          return run_job(ctx, kind, j % variants, *in);
        }));
      }
    }
    for (std::future<bool>& f : burst) {
      r.check(f.get(), "serve warm-up job returned a wrong result");
    }
    setup_s.push_back(ns_to_s(now_ns() - t0 - oracle_ns));
  }

  // The generator: warm-up phase, drain and reset, the window, drain.
  std::vector<job_sample> samples;
  samples.reserve(window.size() / sample_every + 1);
  std::uint64_t base = 0;
  std::uint64_t allocs0 = 0;
  std::uint64_t allocs1 = 0;
  std::thread generator([&] {
    (void)rt::scheduler::set_thread_affinity({cpu_count() - 1});
    st->send(warm, warm_records, now_ns() + 1000000, nullptr, false);
    st->srv.drain();
    st->set.reset_stats();
    st->srv.reset_stats();
    allocs0 = alloc::slab_totals().system_allocs;
    base = now_ns() + 1000000;
    st->send(window, window_records, base, &samples, opt.trace);
    st->srv.drain();
    allocs1 = alloc::slab_totals().system_allocs;
  });
  generator.join();
  const double rss_mb = peak_rss_mb();
  check_records(r, warm_records);
  check_records(r, window_records);

  // Latency of every window job that ran but the calibration jobs (whose
  // latency includes their extra elision run), in µs from its due time.
  const schedule& w = window;
  const std::vector<job_record>& rec = window_records;
  const auto slices =
      static_cast<std::size_t>(std::max(1.0, std::round(opt.seconds / slice_s)));
  std::vector<double> latency;
  std::vector<std::vector<double>> latency_slices(slices);
  std::vector<std::vector<double>> kind_latency_slices[kinds];
  for (auto& k : kind_latency_slices) k.resize(slices);
  std::vector<double> exec_us[kinds];
  std::vector<double> serial_us[kinds];
  std::vector<double> reference;
  std::vector<double> traced_latency;
  std::vector<double> untraced_latency;
  std::uint64_t completed = 0;
  std::uint64_t last_finish = base;
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (rec[i].status == job_status::pending) continue;
    ++completed;
    last_finish = std::max(last_finish, rec[i].finish_ns);
    const job_kind kind = w.kind[i];
    if (i % sample_every == calibrate_at) {
      serial_us[kind].push_back(rec[i].serial_ns * 1e-3);
      reference.push_back(rec[i].reference_ns);
      continue;
    }
    const double us = ns_to_us(rec[i].finish_ns - (base + w.due_ns[i]));
    const std::size_t slice =
        std::min(slices - 1, static_cast<std::size_t>(ns_to_s(w.due_ns[i]) / slice_s));
    latency.push_back(us);
    latency_slices[slice].push_back(us);
    kind_latency_slices[kind][slice].push_back(us);
    (i % sample_every == 0 ? traced_latency : untraced_latency).push_back(us);
    exec_us[kind].push_back(ns_to_us(rec[i].finish_ns - rec[i].start_ns));
  }
  std::sort(latency.begin(), latency.end());

  // Serving cost against the serial elision, over the mix (a third each):
  // speedup = serial time / served latency, serial_overhead = time on the
  // runtime / serial time, each a ratio of sums of per-kind medians.
  double serial_sum = 0.0, latency_sum = 0.0, exec_sum = 0.0;
  for (std::size_t k = 0; k < kinds; ++k) {
    serial_sum += median(serial_us[k]);
    latency_sum += across_slices(kind_latency_slices[k], 0.5);
    exec_sum += median(exec_us[k]);
  }

  const double factor = host_factor(reference, job_reference_nominal_ns);
  const double latency_p50 = across_slices(latency_slices, 0.50);
  const double latency_p90 = across_slices(latency_slices, 0.90);
  r.end_to_end = {
      {"setup_s", median(setup_s) * factor, "s"},
      {"throughput", static_cast<double>(completed) / ns_to_s(last_finish - base),
       "1/s"},
      {"speedup", serial_sum / latency_sum, "ratio"},
      {"serial_overhead", exec_sum / serial_sum, "ratio"},
      {"latency_p50_us", latency_p50 * factor, "us"},
      {"latency_p90_us", latency_p90 * factor, "us"},
      {"peak_rss_mb", rss_mb, "MiB"},
  };

  // Runtime counters summed over both instances (quiescent after drain).
  rt::worker_stats total;
  for (std::size_t i = 0; i < st->set.size(); ++i) {
    total.merge(st->set.instance_stats(i));
  }

  // run() cost is invisible from outside the server, so it is probed on the
  // qsort/spmv runtime once the server has stopped: empty roots, run() wall
  // minus root-body wall.
  st->srv.stop();
  std::vector<double> run_overhead_us;
  for (int i = 0; i < 201; ++i) {
    std::uint64_t b0 = 0;
    std::uint64_t b1 = 0;
    const std::uint64_t t0 = now_ns();
    st->set.at(0).run([&](rt::context&) {
      b0 = now_ns();
      b1 = now_ns();
    });
    run_overhead_us.push_back(ns_to_us((now_ns() - t0) - (b1 - b0)));
  }

  r.layer = {
      {"runtime.run_overhead_us", median(run_overhead_us), "us"},
      {"runtime.spawns", static_cast<double>(total.spawns), "count"},
      {"runtime.steals", static_cast<double>(total.steals), "count"},
      {"runtime.steal_success", share(total.steals, total.steal_attempts), "ratio"},
      {"runtime.backoff_naps", static_cast<double>(total.backoff_naps), "count"},
      {"runtime.peak_deque", static_cast<double>(total.peak_deque), "count"},
      {"alloc.system_allocs", static_cast<double>(allocs1 - allocs0), "count"},
      {"alloc.refills_per_mspawn", share(total.magazine_refills, total.spawns) * 1e6,
       "count"},
      {"serve.steals", static_cast<double>(total.steals), "count"},
      {"serve.backoff_naps", static_cast<double>(total.backoff_naps), "count"},
  };
  if (opt.trace) {
    // Tracing adds one clock read on the generator per traced job.
    r.layer.push_back({"spans.overhead",
                       median(traced_latency) / median(untraced_latency) - 1.0,
                       "ratio"});
  }

  // Segments of the traced jobs: due → try_submit called → returned → job
  // started → job finished. The four sum to the job's latency.
  std::vector<double> lag, admit, wait, exec;
  for (const job_sample& s : samples) {
    const std::uint64_t due = base + w.due_ns[s.job];
    lag.push_back(ns_to_us(s.call_ns - due));
    const job_record& jr = rec[s.job];
    if (!opt.trace || jr.status == job_status::pending) continue;
    admit.push_back(ns_to_us(s.return_ns - s.call_ns));
    wait.push_back(
        (static_cast<double>(jr.start_ns) - static_cast<double>(s.return_ns)) * 1e-3);
    exec.push_back(ns_to_us(jr.finish_ns - jr.start_ns));
    r.spans.push_back({"serve.lag", due, s.call_ns, -1, s.job});
    r.spans.push_back({"serve.admit", s.call_ns, s.return_ns, -1, s.job});
    r.spans.push_back({"serve.wait", s.return_ns, jr.start_ns, -1, s.job});
    r.spans.push_back({"serve.exec", jr.start_ns, jr.finish_ns, -1, s.job});
  }

  std::sort(lag.begin(), lag.end());
  const tail lat_tail = tail_percentile(latency);
  r.detail = {
      {"host.reference_us", median(reference) * 1e-3, "us"},
      {"host.factor", factor, "ratio"},
      {"raw.setup_s", median(setup_s), "s"},
      {"raw.latency_p50_us", latency_p50, "us"},
      {"raw.latency_p90_us", latency_p90, "us"},
      {"offered_rate", rate, "1/s"},
      {"jobs", static_cast<double>(w.size()), "count"},
      {"completed", static_cast<double>(completed), "count"},
      {"latency_p99_us", quantile_sorted(latency, 0.99), "us"},
      {"latency_p999_us", quantile_sorted(latency, 0.999), "us"},
      {"latency_tail_pct", lat_tail.pct, "%"},
      {"latency_tail_us", lat_tail.value, "us"},
      {"latency_tail_beyond", static_cast<double>(lat_tail.beyond), "count"},
      {"generator_lag_p50_us", quantile_sorted(lag, 0.50), "us"},
      {"generator_lag_p99_us", quantile_sorted(lag, 0.99), "us"},
      {"generator_lag_max_us", lag.empty() ? 0.0 : lag.back(), "us"},
  };
  for (std::size_t k = 0; k < kinds; ++k) {
    r.detail.push_back({std::string("serial_") + kind_names[k] + "_us",
                        median(serial_us[k]), "us"});
    r.detail.push_back({std::string("exec_") + kind_names[k] + "_us",
                        median(exec_us[k]), "us"});
  }
  if (opt.trace) {
    const struct {
      const char* name;
      std::vector<double>* v;
    } segments[] = {{"serve.lag_us", &lag}, {"serve.admit_us", &admit},
                    {"serve.wait_us", &wait}, {"serve.exec_us", &exec}};
    for (const auto& seg : segments) {
      std::sort(seg.v->begin(), seg.v->end());
      const std::string name = seg.name;
      // The generator waits for each due time in a loop of clock reads, so
      // the median lag is one clock read on every run: generator_lag_p50_us
      // keeps it as a detail.
      if (seg.v != &lag) {
        r.layer.push_back({name + "_p50", quantile_sorted(*seg.v, 0.5), "us"});
      }
      r.layer.push_back({name + "_p90", quantile_sorted(*seg.v, 0.9), "us"});
    }
  }
  r.series = {{"setup_s", setup_s},
              {"latency_p50_us_by_slice", per_slice(latency_slices, 0.50)},
              {"latency_p90_us_by_slice", per_slice(latency_slices, 0.90)}};
  return r;
}

}  // namespace

result run_serve_light(const options& opt) { return run_serve(opt, 50'000.0); }
result run_serve_heavy(const options& opt) { return run_serve(opt, 100'000.0); }

}  // namespace cilkbench
