#include <algorithm>
#include <bit>
#include <chrono>
#include <numeric>

#include "runtime/scheduler.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace cilkpp::rt {

namespace {
thread_local worker* tl_worker = nullptr;

/// Best-effort single-thread pinning; false when unsupported or refused
/// (restricted cgroups, exotic platforms). Callers never rely on success.
bool bind_this_thread(const std::vector<unsigned>& cpus) {
  if (cpus.empty()) return false;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned c : cpus) {
    if (c < CPU_SETSIZE) CPU_SET(c, &set);
  }
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  return false;
#endif
}
}  // namespace

worker* scheduler::current_worker() { return tl_worker; }
void scheduler::set_current_worker(worker* w) { tl_worker = w; }

bool scheduler::set_thread_affinity(const std::vector<unsigned>& cpus) {
  return bind_this_thread(cpus);
}

bool scheduler::pin_caller() const {
  if (options_.affinity.empty()) return false;
  return bind_this_thread({options_.affinity.front()});
}

scheduler::scheduler(scheduler_options options) : options_(std::move(options)) {
  unsigned count = options_.workers;
  if (count == 0) {
    count = options_.affinity.empty()
                ? std::thread::hardware_concurrency()
                : static_cast<unsigned>(options_.affinity.size());
    if (count == 0) count = 1;
  }
  std::uint64_t seed_state = 0x2545f4914f6cdd1dULL;
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    workers_.push_back(
        std::make_unique<worker>(i, this, splitmix64(seed_state), count));
  }
  // Worker 0 is the thread that calls run(); the pool provides the rest.
  // Each pool thread pins itself before entering worker_main so every task
  // it ever executes runs inside this instance's CPU partition; worker 0's
  // pinning is the dedicated caller's job (pin_caller).
  build_probe_orders();
  threads_.reserve(count - 1);
  for (unsigned i = 1; i < count; ++i) {
    threads_.emplace_back([this, i] {
      const std::vector<unsigned>& mask = options_.affinity;
      if (!mask.empty() &&
          bind_this_thread({mask[i % mask.size()]})) {
        affinity_applied_.fetch_add(1, std::memory_order_acq_rel);
      }
      worker_main(i);
    });
  }
}

void scheduler::build_probe_orders() {
  // Distance metric: with an affinity mask, |cpu_i - cpu_j| — adjacent CPU
  // ids are SMT siblings or same-package neighbors on every layout Linux
  // enumerates, so "close id" is a serviceable proxy for "shared cache"
  // without parsing sysfs topology. Without a mask nothing is known about
  // placement, so fall back to ring distance on worker ids, which at least
  // makes distinct workers prefer distinct first victims (id+1, id+2, …)
  // instead of all hammering the same deque.
  const std::size_t n = workers_.size();
  const std::vector<unsigned>& mask = options_.affinity;
  auto cpu_of = [&](std::size_t i) {
    return static_cast<std::uint64_t>(mask[i % mask.size()]);
  };
  for (std::size_t i = 0; i < n; ++i) {
    worker& w = *workers_[i];
    w.victim_bucket.assign(n, 0);
    std::vector<std::uint64_t> dist(n, 0);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      std::uint64_t d;
      if (!mask.empty()) {
        const std::uint64_t a = cpu_of(i), b = cpu_of(j);
        d = a > b ? a - b : b - a;
      } else {
        const std::uint64_t raw = i > j ? i - j : j - i;
        d = std::min<std::uint64_t>(raw, n - raw);
      }
      dist[j] = d;
      // Bucket 0 = distance 0 (same CPU); bucket k covers [2^(k-1), 2^k).
      w.victim_bucket[j] = static_cast<std::uint8_t>(
          std::min<std::size_t>(steal_distance_buckets - 1,
                                static_cast<std::size_t>(std::bit_width(d))));
    }
    w.probe_order.resize(n - 1);
    std::size_t out = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) w.probe_order[out++] = static_cast<std::uint32_t>(j);
    }
    std::stable_sort(w.probe_order.begin(), w.probe_order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return dist[a] < dist[b];
                     });
  }
}

scheduler::~scheduler() {
  shutdown_.store(true, std::memory_order_release);
  // Bump the wake epoch under the lock so a worker between its epoch
  // capture and its wait cannot miss the shutdown notification.
  {
    std::lock_guard lock(idle_mu_);
    ++wake_epoch_;
  }
  idle_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  // The shutdown-balance oracle. Only now: a pool worker may still be in
  // its last frame's epilogue when run() returns, since a frame's join is
  // not its last act. Every helping sync put back the census it raised,
  // and every frame gave its join state back.
  for (const auto& w : workers_) {
    CILKPP_ASSERT(w->live_frames.load(std::memory_order_relaxed) == 0,
                  "a worker's live-frame census did not return to zero");
    CILKPP_ASSERT(w->joins.size() == 0,
                  "a worker's join states were not all given back");
  }
}

bool scheduler::any_work() const {
  for (const auto& w : workers_) {
    if (w->deque.size_estimate() > 0) return true;
  }
  return false;
}

void scheduler::worker_main(unsigned id) {
  worker& w = *workers_[id];
  set_current_worker(&w);
  w.attach_alloc_counters();
  unsigned fails = 0;
  while (!shutdown_.load(std::memory_order_acquire)) {
    // With no run in flight there is nothing to steal: don't spin probing
    // (it would burn CPU and pollute the steal-attempt statistics).
    const bool active = run_active_.load(std::memory_order_acquire);
    if (active && help_one(w)) {
      fails = 0;
      continue;
    }

    // Exponential global backoff before the full park: a thief that keeps
    // coming up empty asks to sleep 1, 2, 4, … 64 µs (unregistered —
    // idlers_ stays 0, so victims' pushes skip the fence-guarded
    // mutex/notify and the spawn path stays cheap), re-probing between
    // naps. The kernel's timer slack sets the real length: on a Linux 6.18
    // VM (4-vCPU Xeon) sleep_for(1 µs) returned after 56 µs and
    // sleep_for(64 µs) after 120 µs (medians of 200 calls), so the eight
    // naps before a park take about 630 µs. Crucial when workers outnumber
    // CPUs: the nap yields the core to whoever has work instead of burning
    // it on failed steal sweeps. Only after eight dry sweeps does the
    // worker fall through to the parking protocol, whose wakeup is exact.
    if (active && fails < 8) {
      bump_counter(w.backoff_naps);
      std::this_thread::sleep_for(
          std::chrono::microseconds(1u << std::min(fails, 6u)));
      ++fails;
      continue;
    }
    fails = 0;

    // Nothing anywhere: park under the register→recheck→wait protocol.
    // Ordering argument (the fix for the lost-wakeup window): we register
    // as an idler FIRST, capture the wake epoch, and only then re-probe
    // the deques. push() pairs this with a seq_cst fence between its deque
    // push and its idlers_ load, so for any concurrent push either
    //   (a) our re-probe sees the pushed task (we skip the wait), or
    //   (b) the pusher's idlers_ load sees our registration, and it bumps
    //       wake_epoch_ under idle_mu_ + notifies. If the bump lands
    //       before our epoch capture, the push is also mutex-ordered
    //       before it and the probe finds the task; if it lands after,
    //       the wait predicate sees the epoch move and we don't sleep.
    // The previous code probed BEFORE registering, so a push landing in
    // between saw idlers_ == 0, skipped the notify, and the wakeup was
    // recovered only by the 200 µs timeout (kept below as a belt-and-
    // braces backstop, not as the wakeup mechanism).
    idlers_.fetch_add(1, std::memory_order_seq_cst);
    std::uint64_t epoch;
    {
      std::lock_guard lock(idle_mu_);
      epoch = wake_epoch_;
    }
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const bool saw_work = run_active_.load(std::memory_order_acquire) &&
                          any_work();
    if (!saw_work && !shutdown_.load(std::memory_order_acquire)) {
      std::unique_lock lock(idle_mu_);
      idle_cv_.wait_for(lock, std::chrono::microseconds(200), [&] {
        return wake_epoch_ != epoch ||
               shutdown_.load(std::memory_order_relaxed);
      });
    }
    idlers_.fetch_sub(1, std::memory_order_relaxed);
  }
  set_current_worker(nullptr);
}

bool scheduler::steal_and_execute(worker& w) {
  const std::size_t n = workers_.size();
  if (n < 2) return false;
  // Two sweeps. Sweep 1 walks the near-first probe order once: a task
  // stolen from a cache-sharing neighbor brings its frame's lines along for
  // almost free, so closeness is tried before fairness. Sweep 2 falls back
  // to uniformly random victims — the randomness the work-stealing bounds
  // assume — so a far victim with deep work is still found and no pair of
  // workers can livelock on each other's empty deques.
  const std::size_t rounds = 2 * n;
  for (std::size_t i = 0; i < rounds; ++i) {
    chaos_perturb(&w, chaos_point::steal_attempt);
    std::size_t victim = n;
    // Chaos may skew victim selection (always-victim-0, round-robin, …);
    // out-of-range or self answers keep the default choice.
    if (chaos_policy* c = w.chaos.load(std::memory_order_acquire)) {
      const std::size_t v = c->pick_victim(w.id, n);
      if (v < n && v != w.id) victim = v;
    }
    if (victim == n) {
      if (i < w.probe_order.size()) {
        victim = w.probe_order[i];  // near-first sweep
      } else {
        victim = w.rng.below(n - 1);
        if (victim >= w.id) ++victim;  // uniform over workers != w
      }
    }
    bump_counter(w.steal_attempts);  // thief-side counters: single writer
    frame_slot* stolen = nullptr;
    if (workers_[victim]->deque.steal(stolen) == steal_result::success) {
      bump_counter(w.steals);
      bump_counter(w.steals_from[victim]);
      bump_counter(w.steal_dist_hist[w.victim_bucket[victim]]);
      // Thief→victim provenance: the stolen child frame, its parent, and
      // who it was taken from. The record is intact until the child runs,
      // parent_frame is alive (it has an unjoined child) and its pedigree
      // hash is immutable after construction.
      const task& t = stolen->record<task>();
      trace_record(&w, trace::event_kind::steal, t.child_ped_hash,
                   t.parent_frame->ped_hash_, 0,
                   static_cast<std::uint16_t>(victim));
      chaos_perturb(&w, chaos_point::steal_success);
      execute(w, stolen);
      return true;
    }
  }
  return false;
}

void scheduler::wake_one() {
  {
    std::lock_guard lock(idle_mu_);
    ++wake_epoch_;
  }
  idle_cv_.notify_one();
}

worker_stats scheduler::stats() const {
  worker_stats total;
  for (const auto& w : workers_) total.merge(w->snapshot_stats());
  return total;
}

std::vector<worker_stats> scheduler::per_worker_stats() const {
  std::vector<worker_stats> result;
  result.reserve(workers_.size());
  for (const auto& w : workers_) result.push_back(w->snapshot_stats());
  return result;
}

void scheduler::reset_stats() {
  CILKPP_ASSERT(!run_active_.load(std::memory_order_acquire),
                "reset_stats() while a run is in flight; a reset racing a "
                "worker's updates would tear cross-counter invariants");
  for (auto& w : workers_) w->reset_stats();
}

void scheduler::install_trace(const std::vector<trace::event_ring*>& rings) {
  CILKPP_ASSERT(!run_active_.load(std::memory_order_acquire),
                "install_trace while a run is in flight");
  CILKPP_ASSERT(rings.size() == workers_.size(),
                "install_trace needs one ring per worker");
  CILKPP_ASSERT(workers_.size() <= (std::size_t{1} << 16),
                "trace events carry a 16-bit worker id");
  // Release: a worker that observes the pointer must also observe the
  // ring's initialized storage.
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->trace_ring.store(rings[i], std::memory_order_release);
  }
}

void scheduler::remove_trace() {
  CILKPP_ASSERT(!run_active_.load(std::memory_order_acquire),
                "remove_trace while a run is in flight");
  // With no run in flight no worker can be mid-record, so clearing the
  // pointers is sufficient. Why: every record a worker issues while
  // executing a child completes before that child's join is counted in
  // its parent (finish_spawned and run_leaf record frame_end last, before
  // the join, in the observed instantiation every pushed child of a traced
  // run carries), and the steal record completes while the stolen child is
  // still unjoined. A join is ordered before the parent's sync passes —
  // by program order when the child ran on the parent's own worker, by the
  // release increment of joined_stolen and the parent's acquire load
  // otherwise — and each frame joins its own parent only after its own
  // implicit sync, so every record happens-before the root's sync, i.e.
  // before run() returned. After that, a pool worker only records on a
  // *successful* steal, and with no run in flight every deque is empty.
  for (auto& w : workers_) {
    w->trace_ring.store(nullptr, std::memory_order_release);
  }
}

void scheduler::install_chaos(chaos_policy* policy) {
  CILKPP_ASSERT(!run_active_.load(std::memory_order_acquire),
                "install_chaos while a run is in flight");
  CILKPP_ASSERT(policy != nullptr, "install_chaos(nullptr); use remove_chaos");
  for (auto& w : workers_) {
    w->chaos.store(policy, std::memory_order_release);
  }
}

void scheduler::remove_chaos() {
  CILKPP_ASSERT(!run_active_.load(std::memory_order_acquire),
                "remove_chaos while a run is in flight");
  // Unlike remove_trace, clearing the pointers is NOT enough to free the
  // policy immediately: chaos points fire on steal *attempts* too, so an
  // idle worker that observed run_active_ during the previous run's tail
  // may still be inside its bounded probe loop holding the old pointer.
  // Hence the lifetime rule on install_chaos: the policy outlives the
  // scheduler or the next completed run().
  for (auto& w : workers_) {
    w->chaos.store(nullptr, std::memory_order_release);
  }
}

}  // namespace cilkpp::rt
