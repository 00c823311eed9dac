#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <thread>

#include "suite.hpp"
#include "support/timing.hpp"

namespace cilkbench {

void result::check(bool ok, const char* what) {
  ++attempted;
  if (ok) return;
  if (++failed <= 10) {
    std::fprintf(stderr, "cilkbench: %s: check failed: %s\n", workload.c_str(),
                 what);
  }
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || sorted[lo] == sorted[hi]) return sorted[lo];
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

summary summarize(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  summary s;
  s.q1 = quantile_sorted(v, 0.25);
  s.median = quantile_sorted(v, 0.5);
  s.q3 = quantile_sorted(v, 0.75);
  return s;
}

double median(std::vector<double> v) { return summarize(std::move(v)).median; }

double share(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

tail tail_percentile(const std::vector<double>& sorted) {
  tail t;
  const double n = static_cast<double>(sorted.size());
  for (const double pct : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    const double beyond = n * (1.0 - pct / 100.0);
    if (beyond < 10.0) break;
    t.pct = pct;
    t.value = quantile_sorted(sorted, pct / 100.0);
    t.beyond = static_cast<std::size_t>(beyond);
  }
  return t;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec,
  // so a launcher's own footprint (run.py's Python) would be counted.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

namespace {

/// n doubles in [0, 1) from a fixed seed.
std::vector<double> reference_input(std::size_t n) {
  std::mt19937_64 gen(0x686f7374);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = unit(gen);
  return v;
}

/// Nanoseconds std::sort takes on a copy of `input`.
double time_sort(const std::vector<double>& input) {
  std::vector<double> v = input;
  const std::uint64_t t0 = cilkpp::now_ns();
  std::sort(v.begin(), v.end());
  const auto ns = static_cast<double>(cilkpp::now_ns() - t0);
  cilkpp::do_not_optimize(v.data());
  return ns;
}

}  // namespace

unsigned cpu_count() { return std::max(1u, std::thread::hardware_concurrency()); }

double host_reference_ns() {
  static const std::vector<double> input = reference_input(std::size_t{1} << 16);
  const unsigned cpus = cpu_count();
  std::vector<double> ns(cpus);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < cpus; ++c) {
    threads.emplace_back([&ns, c] { ns[c] = time_sort(input); });
  }
  for (std::thread& t : threads) t.join();
  return median(std::move(ns));
}

double job_reference_ns() {
  static const std::vector<double> input = reference_input(256);
  return time_sort(input);
}

double host_factor(std::vector<double> reference_ns, double nominal_ns) {
  if (reference_ns.empty()) return 1.0;  // nothing to scale by
  return nominal_ns / median(std::move(reference_ns));
}

namespace {

/// Signed: a serve job may start before the submitter's try_submit call
/// has returned, which makes that job's wait segment negative.
double duration_ns(const span& s) {
  return static_cast<double>(s.end_ns) - static_cast<double>(s.start_ns);
}

}  // namespace

void add_self_times(result& r) {
  // Self time = a span's duration minus what its children cover. Children
  // of one parent never overlap here (the benchmark calls layers one after
  // another), so "covered" is a plain sum.
  std::vector<double> covered(r.spans.size(), 0.0);
  for (const span& s : r.spans) {
    if (s.parent >= 0) {
      covered[static_cast<std::size_t>(s.parent)] += duration_ns(s);
    }
  }
  std::map<std::string, std::vector<double>> self_us;
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const span& s = r.spans[i];
    self_us[s.name].push_back((duration_ns(s) - covered[i]) * 1e-3);
  }
  for (auto& [name, v] : self_us) {
    r.detail.push_back({"self." + name + "_us", median(std::move(v)), "us"});
  }
}

}  // namespace cilkbench
