// cilkbench — the repo's benchmark (see README.md in this directory).
//
//   cilkbench --workload <name> --seed <u64> [--seconds <s>] [--trace [0|1]]
//   cilkbench                      # every workload, seed 1, untraced
//
// Prints every metric by name with its unit, writes BENCH_suite_<workload>
// .json (and .spans.json when traced), and ends its output with one JSON
// line: {"correct", "attempted", "failed", "metrics"}, where metrics are the
// end-to-end ones untraced and the per-layer ones traced. Exits non-zero
// exactly when a result check failed; slow runs are reported, never fatal.
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "suite.hpp"
#include "support/stats.hpp"

namespace {

using namespace cilkbench;
using cilkpp::json_writer;

struct workload {
  const char* name;
  result (*run)(const options&);
};

constexpr workload workloads[] = {
    {"fib_spawn", run_fib_spawn},     {"qsort_sort", run_qsort_sort},
    {"graph_bcpr", run_graph_bcpr},   {"serve_light", run_serve_light},
    {"serve_heavy", run_serve_heavy},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "cilkbench: %s\n"
               "usage: cilkbench [--workload <name> --seed <u64> [--seconds <s>] "
               "[--trace [0|1]]]\n"
               "workloads:",
               why);
  for (const workload& w : workloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

/// A number with every digit.
std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metrics(const char* group, const std::vector<metric>& ms) {
  for (const metric& m : ms) {
    std::printf("%-10s %-32s %s %s\n", group, m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
}

void write_metrics(json_writer& w, const char* key, const std::vector<metric>& ms) {
  w.key(key);
  w.begin_object();
  for (const metric& m : ms) {
    w.key(m.name);
    w.begin_object();
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
}

void write_artifact(const options& opt, const result& r) {
  json_writer w;
  w.begin_object();
  w.field("benchmark", "cilkbench");
  w.field("workload", r.workload);
  w.field("seed", opt.seed);
  w.field("seconds", opt.seconds);
  w.field("trace", opt.trace);
  w.field("correct", r.failed == 0);
  w.field("attempted", r.attempted);
  w.field("failed", r.failed);
  write_metrics(w, "end_to_end", r.end_to_end);
  write_metrics(w, "layer", r.layer);
  write_metrics(w, "detail", r.detail);
  w.key("series");
  w.begin_object();
  for (const auto& [name, values] : r.series) {
    w.key(name);
    w.begin_array();
    for (const double v : values) w.value(v);
    w.end_array();
  }
  w.end_object();
  w.end_object();
  const std::string path = "BENCH_suite_" + r.workload + ".json";
  std::ofstream(path) << w.take() << '\n';
  std::printf("wrote %s\n", path.c_str());
}

/// One span per line: [name, start_ns, end_ns, parent, id], times relative
/// to the first span's start.
void write_spans(const result& r) {
  const std::string path = "BENCH_suite_" + r.workload + ".spans.json";
  std::ofstream out(path);
  const std::uint64_t origin = r.spans.empty() ? 0 : r.spans.front().start_ns;
  out << "{\"workload\": \"" << r.workload << "\", \"columns\": "
      << "[\"name\", \"start_ns\", \"end_ns\", \"parent\", \"id\"], \"spans\": [";
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const span& s = r.spans[i];
    out << (i == 0 ? "\n" : ",\n") << "[\"" << s.name << "\", "
        << static_cast<std::int64_t>(s.start_ns - origin) << ", "
        << static_cast<std::int64_t>(s.end_ns - origin) << ", " << s.parent << ", "
        << s.id
        << "]";
  }
  out << "\n]}\n";
  std::printf("wrote %s (%zu spans)\n", path.c_str(), r.spans.size());
}

/// Runs one workload, reports it, and returns whether every check passed.
bool run_one(const workload& wl, const options& opt) {
  std::printf("cilkbench %s seed=%llu seconds=%s trace=%d\n", wl.name,
              static_cast<unsigned long long>(opt.seed), number(opt.seconds).c_str(),
              opt.trace ? 1 : 0);
  std::fflush(stdout);
  result r = wl.run(opt);
  if (opt.trace) {
    run_probes(r, opt);
    add_self_times(r);
    write_spans(r);
  }
  print_metrics("end_to_end", r.end_to_end);
  print_metrics("layer", r.layer);
  print_metrics("detail", r.detail);
  write_artifact(opt, r);

  std::string line = "{\"correct\": " + std::string(r.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  const std::vector<metric>& reported = opt.trace ? r.layer : r.end_to_end;
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const metric& m = reported[i];
    line += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return r.failed == 0;
}

}  // namespace

int main(int argc, char** argv) {
  options opt;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--workload" && has_value) {
        opt.workload = argv[++i];
        have_workload = true;
      } else if (arg == "--seed" && has_value) {
        opt.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        opt.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace") {
        opt.trace = true;
        if (has_value && (std::strcmp(argv[i + 1], "0") == 0 ||
                          std::strcmp(argv[i + 1], "1") == 0)) {
          opt.trace = argv[++i][0] == '1';
        }
      } else {
        return usage(("unexpected argument '" + std::string(arg) + "'").c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!(opt.seconds > 0 && opt.seconds <= 600)) {
    return usage("--seconds must be in (0, 600]");
  }

  if (!have_workload) {
    // No arguments: every workload with seed 1 (CI's smoke loop runs bench
    // binaries this way). peak_rss_mb is then cumulative across workloads.
    bool ok = true;
    for (const workload& wl : workloads) {
      options each = opt;
      each.workload = wl.name;
      ok = run_one(wl, each) && ok;
    }
    return ok ? 0 : 1;
  }
  for (const workload& wl : workloads) {
    if (opt.workload == wl.name) return run_one(wl, opt) ? 0 : 1;
  }
  return usage(("unknown workload '" + opt.workload + "'").c_str());
}
