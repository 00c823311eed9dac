// Differential oracles and the fuzz driver.
//
// One stress_case = (program seed, chaos seed, worker count, size budget).
// run_case() executes the generated program four ways — serial elision
// (the reference semantics), the dag recorder (feeding cilkview and the
// sim::machine), a cilkscreen engine, and the threaded runtime under the
// seeded chaos policy — and cross-checks them:
//
//   * elision accounts exactly the program's expected work, and the list
//     reducer folds to the precomputed serial order;
//   * recorder and cilkscreen runs produce bit-identical results to
//     elision, the recorded dag's work matches (modulo split bookkeeping),
//     and cilkview's profile is internally consistent;
//   * the simulated makespan respects the greedy bounds
//     max(T∞, ⌈T1/P⌉) ≤ TP ≤ T1/P + 4(L+1)·T∞ (paper Sec. 3.1);
//   * cilkscreen reports ZERO races — generated programs are race-free by
//     construction, so any report is a detector or engine bug;
//   * the threaded run under chaos produces bit-identical results to
//     elision (spawn determinism + reducer determinism, Sec. 5), for every
//     chaos seed;
//   * the threaded run leaks no slab block: every block taken while it ran
//     — boxed closures, slot-arena chunks, reducer views, the run's pools —
//     is free again once the run and its run_state are gone
//     (slab_blocks_left_live);
//   * scheduler invariants hold once quiescent: spawns == tasks executed,
//     and each worker's peak deque depth obeys the busy-leaves-style bound
//     width·live-frames (Sec. 3.1) and lazy spawning's bound P − 1.
//
// Every failure carries the seeds that deterministically regenerate the
// program and the chaos parameters (see docs/TUTORIAL.md, "Reproducing a
// failure from a stress seed").
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/slab.hpp"
#include "stress/chaos.hpp"
#include "stress/interp.hpp"
#include "stress/program.hpp"

namespace cilkpp::stress {

struct stress_case {
  std::uint64_t program_seed = 1;
  std::uint64_t chaos_seed = 0;  ///< 0 = hooks installed but inert
  unsigned workers = 2;
  unsigned size = 14;  ///< program size budget
};

struct stress_failure {
  stress_case c;
  std::string oracle;  ///< which oracle fired (e.g. "runtime-differs")
  std::string detail;
  /// When the failure localizes to one output, the pedigree of the strand
  /// that produced it (empty otherwise): seed + pedigree is a complete,
  /// schedule-free repro — stress::replay_strand re-executes just that
  /// strand's spine.
  std::string pedigree;

  /// Human-readable report whose REPRO line replays this exact case (plus a
  /// REPLAY line when a strand pedigree was captured).
  std::string describe() const;
};

/// The eight fixed chaos seeds tier-1 sweeps (seed 0 = inert hooks, the
/// rest increasingly adversarial mixes).
std::vector<std::uint64_t> default_chaos_seeds();

struct fuzz_options {
  unsigned programs = 200;
  unsigned size = 14;
  std::uint64_t base_program_seed = 1000;
  /// Chaos seeds rotated over programs (chaos_per_program per program).
  std::vector<std::uint64_t> chaos_seeds = default_chaos_seeds();
  unsigned chaos_per_program = 2;
  std::vector<unsigned> worker_counts = {2, 4};
  /// Stop after this many failures (0 = never).
  unsigned max_failures = 20;
};

struct fuzz_report {
  unsigned programs = 0;
  unsigned threaded_runs = 0;
  /// Distinct chaos seeds actually exercised.
  unsigned chaos_seeds_used = 0;
  /// Order-sensitive fold of every run's checksum: two identical fuzz
  /// invocations must produce identical fingerprints (determinism check).
  std::uint64_t fingerprint = 0;
  std::vector<stress_failure> failures;

  bool ok() const { return failures.empty(); }
  std::string summary() const;
};

/// The slab leak oracle: runs `scope` and returns how many slab blocks it
/// left live — taken while it ran and not freed by its end (negative for a
/// double free). A frame stolen at P > 1 frees its arena chunks in its
/// destructor, after its join may already have let run() return, so a
/// nonzero count is read again until `settle` has passed; a leaked block
/// stays live through that wait.
template <typename Scope>
std::int64_t slab_blocks_left_live(
    Scope&& scope,
    std::chrono::milliseconds settle = std::chrono::milliseconds(2000)) {
  const std::int64_t before = alloc::slab_totals().live_blocks();
  std::forward<Scope>(scope)();
  const auto deadline = std::chrono::steady_clock::now() + settle;
  std::int64_t left = alloc::slab_totals().live_blocks() - before;
  while (left != 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
    left = alloc::slab_totals().live_blocks() - before;
  }
  return left;
}

/// Runs stress cases against cached schedulers. Chaos policies are kept
/// alive until the harness is destroyed (declared before the schedulers,
/// destroyed after them) per the install_chaos lifetime rule.
class stress_harness {
 public:
  stress_harness() = default;
  ~stress_harness() = default;

  stress_harness(const stress_harness&) = delete;
  stress_harness& operator=(const stress_harness&) = delete;

  /// Runs every oracle for one case, appending any failures to `rep`.
  void run_case(const stress_case& c, fuzz_report& rep);

  /// The full driver: opt.programs generated programs, each run through
  /// every engine and through chaos_per_program rotated chaos seeds.
  fuzz_report fuzz(const fuzz_options& opt);

 private:
  rt::scheduler& sched_for(unsigned workers);

  // Destruction order matters: scheds_ is declared after policies_, so the
  // schedulers are destroyed first and no worker can touch a freed policy.
  std::vector<std::unique_ptr<seeded_chaos>> policies_;
  std::vector<std::pair<unsigned, std::unique_ptr<rt::scheduler>>> scheds_;
};

}  // namespace cilkpp::stress
