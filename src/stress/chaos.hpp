// Seeded schedule chaos: the adversary for the work-stealing runtime.
//
// The paper's guarantees — the greedy-scheduler time bound (Sec. 3.1), the
// busy-leaves space bound, serial elision (Sec. 1), reducer determinism
// (Sec. 5) — are properties of *every* schedule, but a threaded runtime on
// CI hardware only ever sees the handful of schedules its machine happens
// to produce. seeded_chaos plugs into the rt::chaos_policy hook
// (scheduler.hpp; always compiled in, and free while detached) and widens
// that set: it injects yields and microsecond sleeps at spawn/steal/sync
// boundaries, skews victim selection, forces workers to steal when they
// have local work, and starves chosen workers with extra delays — every
// decision drawn from per-worker xoshiro256 streams derived from ONE seed,
// so a failing schedule's perturbation pattern is regenerated exactly from
// the seed printed in the failure report.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/scheduler.hpp"
#include "support/cache.hpp"
#include "support/rng.hpp"

namespace cilkpp::stress {

/// Perturbation intensities. Chances are per chaos point, in 1/65536 units
/// (one rng draw, one compare on the hot path). The default is the null
/// policy: install it to measure the observed instantiation's overhead
/// (every chaos point reached, none acting).
struct chaos_params {
  std::uint32_t yield_chance = 0;         ///< std::this_thread::yield()
  std::uint32_t sleep_chance = 0;         ///< 1–20 µs nap
  std::uint32_t long_sleep_chance = 0;    ///< 100 µs straggler stall
  std::uint32_t prefer_steal_chance = 0;  ///< steal before popping own deque
  std::uint32_t victim_override_chance = 0;

  enum class victim_mode : std::uint8_t {
    uniform,      ///< no override (the runtime's own random choice)
    lowest,       ///< hammer worker 0 (the run() thread)
    highest,      ///< hammer the last worker
    round_robin,  ///< deterministic sweep over all victims
  };
  victim_mode mode = victim_mode::uniform;

  /// Workers 1..starved_workers sleep 8x more often — the paper's
  /// multiprogramming adversary (Sec. 3.2) in miniature.
  unsigned starved_workers = 0;

  /// Derives a full parameter set from a seed. Seed 0 is reserved for the
  /// null policy (all chances zero); any other seed yields an adversarial
  /// mix, deterministically.
  static chaos_params from_seed(std::uint64_t seed);

  std::string describe() const;
};

/// Decision counters, summed over workers. Monotone; exact once quiescent.
struct chaos_stats {
  std::uint64_t points = 0;   ///< chaos points observed
  std::uint64_t yields = 0;
  std::uint64_t sleeps = 0;   ///< short + long
  std::uint64_t forced_steals = 0;
  std::uint64_t victim_overrides = 0;
};

class seeded_chaos final : public rt::chaos_policy {
 public:
  /// Policy for schedulers of up to `workers` workers, fully determined by
  /// (seed). Decision streams are per worker — worker w's k-th decision is
  /// the same on every run with this seed, independent of the other
  /// workers' timing.
  seeded_chaos(std::uint64_t seed, unsigned workers);
  /// Explicit parameters (e.g. the null policy for overhead measurement).
  seeded_chaos(const chaos_params& params, std::uint64_t seed, unsigned workers);

  void perturb(unsigned worker_id, rt::chaos_point p) override;
  bool prefer_steal(unsigned worker_id) override;
  std::size_t pick_victim(unsigned worker_id, std::size_t nworkers) override;

  std::uint64_t seed() const { return seed_; }
  const chaos_params& params() const { return params_; }
  chaos_stats stats() const;
  std::string describe() const;

 private:
  /// Per-worker decision lane: its own rng stream plus counters, padded so
  /// concurrent workers do not false-share.
  struct alignas(cache_line_size) lane {
    xoshiro256 rng{0};
    std::uint32_t sleep_chance = 0;  ///< params chance, x8 if starved
    std::uint64_t next_victim = 0;   ///< round-robin cursor (owner-only)
    std::atomic<std::uint64_t> points{0};
    std::atomic<std::uint64_t> yields{0};
    std::atomic<std::uint64_t> sleeps{0};
    std::atomic<std::uint64_t> forced{0};
    std::atomic<std::uint64_t> overrides{0};
  };

  std::uint64_t seed_;
  chaos_params params_;
  std::vector<lane> lanes_;
};

}  // namespace cilkpp::stress
