// cilkbench: the repo's end-to-end benchmark. One invocation runs one
// workload with one seed, checks every result it produces, and reports
// end-to-end metrics (untraced runs) or per-layer metrics (traced runs).
// Every layer is measured from outside: the benchmark times its own calls
// into public functions and reads public counters; nothing in src/ is
// instrumented for it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cilkbench {

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed window
  bool trace = false;
};

/// One named number with its unit.
struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A span the benchmark records around one of its calls into a layer.
/// Kept in memory and written out when the run ends.
struct span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the span list, -1 for a root
  std::uint64_t id = 0;      ///< the rep (compute) or job (serve) it belongs to
};

struct result {
  std::string workload;
  std::uint64_t attempted = 0;  ///< results checked
  std::uint64_t failed = 0;     ///< checks that failed: any fails the run
  /// Gated metrics: reported as the run's metrics when untraced.
  std::vector<metric> end_to_end;
  /// Per-layer metrics: the run's metrics when traced.
  std::vector<metric> layer;
  /// Reported, never gated: raw times, tails, counts and the span self
  /// times.
  std::vector<metric> detail;
  std::vector<span> spans;  ///< traced runs only
  /// Per-rep or per-job series written to the artifact (name → values).
  std::vector<std::pair<std::string, std::vector<double>>> series;

  /// Counts one checked result; prints the first few failures to stderr.
  void check(bool ok, const char* what);
};

/// Quartiles of a sample (linear interpolation between closest ranks).
struct summary {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
summary summarize(std::vector<double> v);
double median(std::vector<double> v);
/// num / den, or 0 when den is 0.
double share(std::uint64_t num, std::uint64_t den);
double quantile_sorted(const std::vector<double>& sorted, double q);

/// The highest of p50, p90, p99, p99.9, p99.99 with at least ten samples
/// beyond it (sorted input; +inf entries count as samples).
struct tail {
  double pct = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;
};
tail tail_percentile(const std::vector<double>& sorted);

/// Hardware threads, at least 1: the P of the compute workloads.
unsigned cpu_count();

/// Peak resident set of this process so far, MiB: VmHWM, or getrusage's
/// ru_maxrss where /proc is missing.
double peak_rss_mb();

/// The host's speed, measured with no code from src/: every CPU sorts its
/// own copy of one fixed array of 2^16 doubles at the same time, and the
/// median per-CPU time is returned, in ns.
double host_reference_ns();
/// The same on the calling thread alone, for an array of 256 doubles:
/// short enough to run inside a serve job.
double job_reference_ns();

/// What the references take on the host the bounds were set on (a 4-vCPU
/// KVM guest on an Intel Xeon, family 6 model 207, when quiet).
constexpr double host_reference_nominal_ns = 5e6;
constexpr double job_reference_nominal_ns = 8e3;

/// Multiplying a time measured in this run by this factor expresses it at
/// the nominal host speed: the nominal reference time over the median of
/// the run's reference samples. A scaled time moves with the library only
/// as long as no thread of the library competes with the reference for a
/// CPU, so the workloads take their samples where none can: compute runs
/// keep only the samples taken while every pool thread stayed parked, and
/// serve runs take them on a worker pinned to a CPU of its own.
double host_factor(std::vector<double> reference_ns, double nominal_ns);

/// Adds the median self time of each span name ("self.<name>_us") to
/// r.detail.
void add_self_times(result& r);

// Workloads (compute.cpp, serve.cpp) and the traced-run probes (probes.cpp).
result run_fib_spawn(const options& opt);
result run_qsort_sort(const options& opt);
result run_graph_bcpr(const options& opt);
result run_serve_light(const options& opt);
result run_serve_heavy(const options& opt);
/// Adds the microbenchmark layers, and the graph.* and serve.* layers the
/// workload did not exercise itself (from a short run of the workload that
/// does), to r.layer.
void run_probes(result& r, const options& opt);

}  // namespace cilkbench
