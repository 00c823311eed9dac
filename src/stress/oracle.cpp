#include "stress/oracle.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "cilkscreen/report.hpp"
#include "cilkview/profile.hpp"
#include "dag/analysis.hpp"
#include "lint/analyzer.hpp"
#include "lint/report.hpp"
#include "memlens/analyzer.hpp"
#include "memlens/report.hpp"
#include "sim/machine.hpp"
#include "stress/replay.hpp"

namespace cilkpp::stress {

namespace {

/// Steal latency used for the simulator oracle; the greedy upper bound's
/// constant (Sec. 3.1) scales with it.
constexpr std::uint64_t sim_steal_latency = 4;

std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof(buf), f, ap);
  va_end(ap);
  return buf;
}

std::string diff_results(const run_result& want, const run_result& got) {
  std::string d = fmt("checksum %llx vs %llx; radd %llu vs %llu",
                      static_cast<unsigned long long>(want.checksum),
                      static_cast<unsigned long long>(got.checksum),
                      static_cast<unsigned long long>(want.radd),
                      static_cast<unsigned long long>(got.radd));
  if (want.rlist != got.rlist) {
    d += fmt("; rlist size %zu vs %zu", want.rlist.size(), got.rlist.size());
    const std::size_t n = std::min(want.rlist.size(), got.rlist.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (want.rlist[i] != got.rlist[i]) {
        d += fmt(", first diff at [%zu]: %u vs %u", i, want.rlist[i],
                 got.rlist[i]);
        break;
      }
    }
  }
  return d;
}

}  // namespace

std::string stress_failure::describe() const {
  std::string s = fmt(
      "stress oracle '%s' failed: %s\n"
      "  REPRO: program_seed=%llu chaos_seed=%llu workers=%u size=%u\n"
      "  (stress_harness{}.run_case({%lluULL, %lluULL, %uU, %uU}, report) "
      "replays it)",
      oracle.c_str(), detail.c_str(),
      static_cast<unsigned long long>(c.program_seed),
      static_cast<unsigned long long>(c.chaos_seed), c.workers, c.size,
      static_cast<unsigned long long>(c.program_seed),
      static_cast<unsigned long long>(c.chaos_seed), c.workers, c.size);
  if (!pedigree.empty()) {
    s += fmt(
        "\n  REPLAY: strand pedigree %s\n"
        "  (stress::replay_strand(generate_program(%lluULL, %uU), "
        "ped::parse(\"%s\")) re-runs just that strand)",
        pedigree.c_str(), static_cast<unsigned long long>(c.program_seed),
        c.size, pedigree.c_str());
  }
  return s;
}

std::vector<std::uint64_t> default_chaos_seeds() {
  // Seed 0 = inert hooks (pure-overhead path); the others span the
  // parameter space from_seed derives: different victim modes, starvation
  // counts, and delay intensities.
  return {0, 1, 2, 3, 5, 8, 13, 21};
}

std::string fuzz_report::summary() const {
  std::string s = fmt(
      "stress fuzz: %u programs, %u threaded runs, %u chaos seeds, "
      "%zu failure(s), fingerprint=%llx",
      programs, threaded_runs, chaos_seeds_used, failures.size(),
      static_cast<unsigned long long>(fingerprint));
  for (const stress_failure& f : failures) {
    s += "\n";
    s += f.describe();
  }
  return s;
}

rt::scheduler& stress_harness::sched_for(unsigned workers) {
  for (auto& [w, s] : scheds_) {
    if (w == workers) return *s;
  }
  scheds_.emplace_back(workers, std::make_unique<rt::scheduler>(workers));
  return *scheds_.back().second;
}

void stress_harness::run_case(const stress_case& c, fuzz_report& rep) {
  const program p = generate_program(c.program_seed, c.size);
  auto fail = [&](const char* oracle, std::string detail) {
    rep.failures.push_back(stress_failure{c, oracle, std::move(detail), {}});
  };
  // Localize a failure to the strand that wrote output `out` (slot index,
  // or num_slots + cell index): the last-pushed failure gains a REPLAY
  // pedigree, making it reproducible without any schedule.
  auto attach_pedigree = [&](std::size_t out) {
    if (rep.failures.empty()) return;
    const ped::pedigree pg = out < p.num_slots
                                 ? pedigree_of_slot(p, out)
                                 : pedigree_of_cell(p, out - p.num_slots);
    rep.failures.back().pedigree = ped::to_string(pg);
  };

  // --- Reference: serial elision. ---
  run_state serial_st(p);
  rt::serial_context sctx;
  try {
    interp(sctx, p, p.root, serial_st);
  } catch (...) {
    fail("serial-exception", "an exception escaped the serial run (every "
                             "throw_last catches its own stress_error)");
    return;
  }
  const run_result serial_r = finish(p, serial_st);
  rep.fingerprint = hash_combine(rep.fingerprint, serial_r.checksum);
  if (sctx.accounted_work() != p.expected_work) {
    fail("serial-work",
         fmt("elision accounted %llu units, generator expected %llu",
             static_cast<unsigned long long>(sctx.accounted_work()),
             static_cast<unsigned long long>(p.expected_work)));
  }
  if (serial_r.rlist != p.expected_rlist) {
    fail("rlist-order",
         fmt("list reducer folded %zu ids, serial-order walk expected %zu",
             serial_r.rlist.size(), p.expected_rlist.size()));
  }
  for (std::size_t i = 0; i < serial_st.marks.size(); ++i) {
    if (*serial_st.marks[i] == 0) {
      fail("serial-catch", fmt("throw_last mark %zu never caught", i));
    }
  }

  // --- Recorder: same results, and a dag whose work matches. ---
  run_state rec_st(p);
  dag::graph g = dag::record(
      [&](dag::recorder_context& ctx) { interp(ctx, p, p.root, rec_st); });
  const run_result rec_r = finish(p, rec_st);
  if (!(rec_r == serial_r)) {
    fail("recorder-differs", diff_results(serial_r, rec_r));
  }
  const dag::metrics m = dag::analyze(g);
  // The recorder charges 1 extra unit per parallel_for split; total splits
  // are bounded by the total iteration count.
  if (m.work < p.expected_work || m.work > p.expected_work + p.num_cells) {
    fail("dag-work", fmt("dag work %llu outside [%llu, %llu]",
                         static_cast<unsigned long long>(m.work),
                         static_cast<unsigned long long>(p.expected_work),
                         static_cast<unsigned long long>(p.expected_work +
                                                         p.num_cells)));
  }
  if (m.span > m.work) {
    fail("dag-span", fmt("span %llu exceeds work %llu",
                         static_cast<unsigned long long>(m.span),
                         static_cast<unsigned long long>(m.work)));
  }

  // --- cilkview: the analyzer must agree with dag::analyze and keep its
  // burdened span on the right side of the plain span.
  const cilkview::profile prof = cilkview::analyze_dag(g);
  if (prof.work != m.work || prof.span != m.span) {
    fail("cilkview-profile",
         fmt("analyze_dag (work=%llu span=%llu) disagrees with dag::analyze "
             "(work=%llu span=%llu)",
             static_cast<unsigned long long>(prof.work),
             static_cast<unsigned long long>(prof.span),
             static_cast<unsigned long long>(m.work),
             static_cast<unsigned long long>(m.span)));
  }
  if (prof.burdened_span < prof.span) {
    fail("cilkview-burden", fmt("burdened span %llu below span %llu",
                                static_cast<unsigned long long>(prof.burdened_span),
                                static_cast<unsigned long long>(prof.span)));
  }

  // --- Simulator: greedy-scheduling bounds (Sec. 3.1). ---
  {
    sim::machine_config cfg;
    cfg.processors = c.workers;
    cfg.steal_latency = sim_steal_latency;
    cfg.seed = c.program_seed | 1;
    const sim::sim_result sr = sim::simulate(g, cfg);
    if (sr.work != m.work) {
      fail("sim-work", fmt("simulated work %llu, dag work %llu",
                           static_cast<unsigned long long>(sr.work),
                           static_cast<unsigned long long>(m.work)));
    }
    const std::uint64_t lower =
        std::max(m.span, (m.work + c.workers - 1) / c.workers);
    if (sr.makespan < lower) {
      fail("sim-lower-bound",
           fmt("makespan %llu below max(span, ceil(work/P)) = %llu",
               static_cast<unsigned long long>(sr.makespan),
               static_cast<unsigned long long>(lower)));
    }
    const double upper =
        static_cast<double>(m.work) / c.workers +
        4.0 * static_cast<double>(sim_steal_latency + 1) *
            static_cast<double>(m.span);
    if (static_cast<double>(sr.makespan) > upper) {
      fail("sim-greedy-upper",
           fmt("makespan %llu above T1/P + 4(L+1)Tinf = %.0f (work=%llu "
               "span=%llu P=%u)",
               static_cast<unsigned long long>(sr.makespan), upper,
               static_cast<unsigned long long>(m.work),
               static_cast<unsigned long long>(m.span), c.workers));
    }
  }

  // --- Cilkscreen: identical results and ZERO reports (the generator only
  // emits race-free programs). With the lint layer compiled in, a lint
  // analyzer rides along on the same run: generated programs are also
  // well-disciplined by construction (disjoint lock pools — see
  // program.hpp), so any lint record is a bug too.
  std::vector<std::uint64_t> screen_draws;
  {
    run_state scr_st(p);
    screen::detector d;
    screen::detector::lint_analyzer la;
    d.attach_lint(&la);
    // Memlens rides along too: the interpreter's pools are padded to one
    // 64-byte line per element (see interp.hpp), so a generated program is
    // false-sharing-clean BY CONSTRUCTION — any memlens record is a bug in
    // the analyzer or in the pool layout, either way ours.
    screen::detector::memlens_analyzer ml;
    d.attach_memlens(&ml);
    screen::run_under_detector(d, [&](screen::screen_context& ctx) {
      interp(ctx, p, p.root, scr_st);
    });
    const run_result scr_r = finish(p, scr_st);
    if (!(scr_r == serial_r)) {
      fail("screen-differs", diff_results(serial_r, scr_r));
    }
    // DPRNG cross-engine determinism: a draw is a pure function of strand
    // identity, so elision and the detector's elision-order run must draw
    // the identical stream. (The comparison skips programs with throws:
    // elision's post-catch ranks legitimately diverge — its sync never
    // executes — while the screen engines traverse without throwing.)
    if (p.num_throws == 0 && scr_st.draws != serial_st.draws) {
      std::size_t bad = 0;
      while (bad < scr_st.draws.size() &&
             scr_st.draws[bad] == serial_st.draws[bad]) {
        ++bad;
      }
      fail("dprng-engine-differs",
           fmt("draw[%zu] = %llx under elision, %llx under cilkscreen", bad,
               static_cast<unsigned long long>(serial_st.draws[bad]),
               static_cast<unsigned long long>(scr_st.draws[bad])));
      attach_pedigree(bad);
    }
    screen_draws = std::move(scr_st.draws);
    if (d.found_races()) {
      fail("screen-false-race",
           fmt("%zu report(s) on a race-free program:\n%s", d.races().size(),
               screen::render_races(d.races(), d.procedures()).c_str()));
    }
    la.finish();
    if (!la.clean()) {
      fail("screen-lint",
           fmt("%zu lint report(s) on a well-disciplined program:\n%s",
               la.records().size(),
               lint::render_lints(la.records(), d.procedures()).c_str()));
    }
    if (d.stats().unmatched_releases != 0) {
      fail("screen-lint",
           fmt("%llu unmatched release(s) on a balanced program",
               static_cast<unsigned long long>(
                   d.stats().unmatched_releases)));
    }
    ml.finish();
    if (!ml.clean()) {
      fail("screen-memlens",
           fmt("%zu memlens report(s) on a padded-by-construction program:\n%s",
               ml.records().size(),
               memlens::render_lenses(ml.records(), d.procedures()).c_str()));
    }
  }

  // --- Threaded runtime under chaos. ---
  rt::scheduler& sched = sched_for(c.workers);
  sched.reset_stats();
  seeded_chaos* policy = nullptr;
  if (c.chaos_seed != 0) {
    policies_.push_back(
        std::make_unique<seeded_chaos>(c.chaos_seed, sched.num_workers()));
    policy = policies_.back().get();
  } else {
    // Seed 0: install an inert policy anyway, so the hook path itself (the
    // loads and virtual calls) is always part of what tier-1 exercises.
    policies_.push_back(std::make_unique<seeded_chaos>(
        chaos_params{}, 0, sched.num_workers()));
    policy = policies_.back().get();
  }
  sched.install_chaos(policy);
  // The leak oracle's scope holds only the threaded run and its run_state,
  // so every slab block taken inside it must be free again at its end.
  bool threw = false;
  const std::int64_t leaked = slab_blocks_left_live([&] {
    run_state rt_st(p);
    try {
      sched.run([&](rt::context& ctx) { interp(ctx, p, p.root, rt_st); });
    } catch (...) {
      threw = true;
    }
    sched.remove_chaos();
    ++rep.threaded_runs;
    if (threw) {
      fail("runtime-exception",
           "an exception escaped scheduler::run (sync must deliver "
           "stress_error to the catching frame)");
      return;
    }
    const run_result rt_r = finish(p, rt_st);
    rep.fingerprint = hash_combine(rep.fingerprint, rt_r.checksum);
    if (!(rt_r == serial_r)) {
      fail("runtime-differs", diff_results(serial_r, rt_r));
      for (std::size_t i = 0; i < serial_st.slots.size(); ++i) {
        if (*rt_st.slots[i] != *serial_st.slots[i]) {
          attach_pedigree(i);
          break;
        }
      }
      if (rep.failures.back().pedigree.empty()) {
        for (std::size_t i = 0; i < serial_st.cells.size(); ++i) {
          if (*rt_st.cells[i] != *serial_st.cells[i]) {
            attach_pedigree(serial_st.slots.size() + i);
            break;
          }
        }
      }
    }
    // Schedule independence of strand identity: steals never rename a strand,
    // so the chaos-scheduled run draws the exact stream the detector's serial
    // run drew — for every chaos seed, bit for bit.
    if (rt_st.draws != screen_draws) {
      std::size_t bad = 0;
      while (bad < rt_st.draws.size() &&
             rt_st.draws[bad] == screen_draws[bad]) {
        ++bad;
      }
      fail("dprng-schedule-differs",
           fmt("draw[%zu] = %llx under cilkscreen, %llx under chaos seed %llu",
               bad, static_cast<unsigned long long>(screen_draws[bad]),
               static_cast<unsigned long long>(rt_st.draws[bad]),
               static_cast<unsigned long long>(c.chaos_seed)));
      attach_pedigree(bad);
    }
  });
  if (threw) return;

  // --- Scheduler invariants, once quiescent. ---
  if (leaked != 0) {
    fail("slab-leak", fmt("the threaded run left %lld slab block(s) live",
                          static_cast<long long>(leaked)));
  }
  const rt::worker_stats agg = sched.stats();
  if (agg.spawns != agg.tasks_executed) {
    fail("spawn-execute-balance",
         fmt("%llu spawns but %llu tasks executed",
             static_cast<unsigned long long>(agg.spawns),
             static_cast<unsigned long long>(agg.tasks_executed)));
  }
  const auto per_worker = sched.per_worker_stats();
  for (std::size_t w = 0; w < per_worker.size(); ++w) {
    const rt::worker_stats& ws = per_worker[w];
    // Busy-leaves-style space bound: a worker's deque only ever holds
    // outstanding children of frames live on its stack.
    const std::uint64_t bound =
        std::uint64_t{p.max_spawn_width} * ws.peak_live_frames;
    if (ws.peak_deque > bound) {
      fail("busy-leaves-deque",
           fmt("worker %zu peak deque %llu exceeds width*frames = %u*%llu",
               w, static_cast<unsigned long long>(ws.peak_deque),
               p.max_spawn_width,
               static_cast<unsigned long long>(ws.peak_live_frames)));
    }
    // Lazy spawning: a spawn pushes only while the deque holds fewer than
    // P − 1 tasks, so no deque ever holds more than P − 1.
    const std::uint64_t lazy_bound = per_worker.size() - 1;
    if (ws.peak_deque > lazy_bound) {
      fail("lazy-spawn-deque",
           fmt("worker %zu peak deque %llu exceeds P - 1 = %llu", w,
               static_cast<unsigned long long>(ws.peak_deque),
               static_cast<unsigned long long>(lazy_bound)));
    }
  }
}

fuzz_report stress_harness::fuzz(const fuzz_options& opt) {
  fuzz_report rep;
  std::vector<std::uint64_t> seeds_used;
  const std::size_t nchaos = opt.chaos_seeds.empty() ? 1 : opt.chaos_seeds.size();
  for (unsigned i = 0; i < opt.programs; ++i) {
    stress_case c;
    c.program_seed = opt.base_program_seed + i;
    c.size = opt.size;
    c.workers = opt.worker_counts.empty()
                    ? 2
                    : opt.worker_counts[i % opt.worker_counts.size()];
    ++rep.programs;
    // Rotate chaos seeds so all of them are exercised across the sweep
    // while each program still sees more than one schedule regime.
    for (unsigned k = 0; k < opt.chaos_per_program; ++k) {
      c.chaos_seed = opt.chaos_seeds.empty()
                         ? 0
                         : opt.chaos_seeds[(i + k * (nchaos / 2 + 1)) % nchaos];
      bool seen = false;
      for (std::uint64_t s : seeds_used) seen = seen || s == c.chaos_seed;
      if (!seen) seeds_used.push_back(c.chaos_seed);
      run_case(c, rep);
      if (opt.max_failures != 0 && rep.failures.size() >= opt.max_failures) {
        rep.chaos_seeds_used = static_cast<unsigned>(seeds_used.size());
        return rep;
      }
    }
  }
  rep.chaos_seeds_used = static_cast<unsigned>(seeds_used.size());
  return rep;
}

}  // namespace cilkpp::stress
