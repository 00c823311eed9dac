#include "sim/machine.hpp"

#include <algorithm>
#include <deque>
#include <queue>

#include "support/assert.hpp"
#include "support/rng.hpp"

namespace cilkpp::sim {

namespace {

enum class event_kind : std::uint8_t {
  complete,  ///< processor finishes its running strand
  find_work, ///< processor looks for work (pop own deque, else probe/sleep)
  probe,     ///< steal probe resolves against a chosen victim
};

struct event {
  std::uint64_t time;
  std::uint64_t seq;  ///< tie-break for determinism
  std::uint32_t proc;
  event_kind kind;
  std::uint32_t victim;  ///< probe only

  bool operator>(const event& o) const {
    return time != o.time ? time > o.time : seq > o.seq;
  }
};

class machine {
 public:
  machine(const dag::graph& g, const machine_config& cfg)
      : g_(g),
        cfg_(cfg),
        rng_(cfg.seed),
        indeg_(g.in_degrees()),
        deques_(cfg.processors),
        running_(cfg.processors, dag::invalid_vertex),
        stats_(cfg.processors),
        lock_busy_(g.num_locks(), false),
        lock_last_holder_(g.num_locks(), invalid_proc_id),
        lock_waiters_(g.num_locks()),
        held_after_(cfg.policy == spawn_policy::lazy ? g.num_vertices() : 0,
                    dag::invalid_vertex) {
    CILKPP_ASSERT(cfg_.processors > 0, "machine needs at least one processor");
    CILKPP_ASSERT(g_.num_vertices() > 0, "cannot simulate the empty dag");
    probe_cost_ = std::max<std::uint64_t>(1, cfg_.steal_latency);
  }

  sim_result run() {
    // Seed: sources round-robin across processors, then everyone looks for
    // work at time 0.
    std::uint32_t next_proc = 0;
    for (dag::vertex_id v : g_.sources()) {
      push(next_proc, v, 0);
      next_proc = (next_proc + 1) % cfg_.processors;
    }
    for (std::uint32_t p = 0; p < cfg_.processors; ++p) {
      schedule(0, p, event_kind::find_work, 0);
    }

    while (completed_ < g_.num_vertices()) {
      CILKPP_ASSERT(!events_.empty(), "simulation deadlocked (dag has a cycle?)");
      const event e = events_.top();
      events_.pop();
      switch (e.kind) {
        case event_kind::complete:
          on_complete(e.proc, e.time);
          break;
        case event_kind::find_work:
          find_work(e.proc, e.time);
          break;
        case event_kind::probe:
          on_probe(e.proc, e.victim, e.time);
          break;
      }
    }

    sim_result r;
    r.makespan = makespan_;
    r.lock_contentions = lock_contentions_;
    r.lock_wait_time = lock_wait_time_;
    r.lock_transfers = lock_transfers_;
    r.peak_residency = peak_residency_;
    r.peak_stack_frames = peak_stack_frames_;
    r.per_proc = stats_;
    r.trace = std::move(trace_);
    for (const proc_stats& s : stats_) {
      r.work += s.busy;
      r.steals += s.steals;
      r.steal_attempts += s.steal_attempts;
    }
    r.utilization =
        makespan_ == 0
            ? 1.0
            : static_cast<double>(r.work) /
                  (static_cast<double>(cfg_.processors) * static_cast<double>(makespan_));
    return r;
  }

 private:
  void schedule(std::uint64_t t, std::uint32_t p, event_kind k, std::uint32_t victim) {
    events_.push(event{t, seq_++, p, k, victim});
  }

  /// Earliest time ≥ t at which processor p is online (adversary model).
  std::uint64_t available(std::uint32_t p, std::uint64_t t) const {
    if (p >= cfg_.offline.size()) return t;
    for (const offline_interval& w : cfg_.offline[p]) {
      if (t >= w.begin && t < w.end) t = w.end;
    }
    return t;
  }

  void push(std::uint32_t p, dag::vertex_id v, std::uint64_t t) {
    deques_[p].push_back(v);
    stats_[p].peak_deque = std::max(stats_[p].peak_deque, deques_[p].size());
    ++residency_;
    peak_residency_ = std::max(peak_residency_, residency_);
    wake_one(t);
  }

  void wake_one(std::uint64_t t) {
    if (sleepers_.empty()) return;
    const std::size_t pick = rng_.below(sleepers_.size());
    const std::uint32_t w = sleepers_[pick];
    sleepers_[pick] = sleepers_.back();
    sleepers_.pop_back();
    schedule(t, w, event_kind::find_work, 0);
  }

  void start_running(std::uint32_t p, dag::vertex_id v, std::uint64_t t) {
    t = available(p, t);
    const std::uint32_t lock = g_.vertex_lock(v);
    if (lock != dag::graph::no_lock) {
      if (lock_busy_[lock]) {
        // Mutex held elsewhere: the processor blocks (a spinning lock) —
        // exactly the serialization the Sec. 5 anecdote is about.
        lock_waiters_[lock].push_back(waiter{p, v, t});
        ++lock_contentions_;
        return;
      }
      lock_busy_[lock] = true;
      if (lock_last_holder_[lock] != invalid_proc_id &&
          lock_last_holder_[lock] != p) {
        t += cfg_.lock_transfer_cost;  // contended cache-line handoff
        ++lock_transfers_;
      }
      lock_last_holder_[lock] = p;
    }
    running_[p] = v;
    stack_frames_ += g_.vertex_depth(v) + 1;
    peak_stack_frames_ = std::max(peak_stack_frames_, stack_frames_);
    stats_[p].peak_frame_depth =
        std::max(stats_[p].peak_frame_depth, g_.vertex_depth(v));
    if (cfg_.collect_trace) {
      trace_.push_back(trace_entry{p, v, t, t + g_.vertex_work(v)});
    }
    schedule(t + g_.vertex_work(v), p, event_kind::complete, 0);
  }

  void on_complete(std::uint32_t p, std::uint64_t t) {
    const dag::vertex_id v = running_[p];
    running_[p] = dag::invalid_vertex;
    stack_frames_ -= g_.vertex_depth(v) + 1;
    stats_[p].busy += g_.vertex_work(v);
    ++stats_[p].strands_executed;
    ++completed_;
    makespan_ = std::max(makespan_, t);

    const std::uint32_t lock = g_.vertex_lock(v);
    if (lock != dag::graph::no_lock) {
      lock_busy_[lock] = false;
      if (!lock_waiters_[lock].empty()) {
        const waiter w = lock_waiters_[lock].front();
        lock_waiters_[lock].pop_front();
        lock_wait_time_ += t - w.since;
        start_running(w.proc, w.vertex, t);  // re-acquires (lock now free)
      }
    }

    // Enable successors; by construction of SP dags the first successor of
    // a spawn strand is the child, the second the continuation.
    newly_ready_.clear();
    for (dag::vertex_id s : g_.successors(v)) {
      if (--indeg_[s] == 0) newly_ready_.push_back(s);
    }
    if (!held_after_.empty() && held_after_[v] != dag::invalid_vertex) {
      // v ended a frame that ran as a call: its spawner's continuation
      // resumes here.
      newly_ready_.push_back(held_after_[v]);
    }
    if (newly_ready_.empty()) {
      find_work(p, t);
      return;
    }
    if (available(p, t) > t) {
      // Descheduled (Sec. 3.2): make everything this completion enabled
      // stealable rather than freezing it on the offline processor.
      for (dag::vertex_id s : newly_ready_) push(p, s, t);
      schedule(available(p, t), p, event_kind::find_work, 0);
      return;
    }
    if (cfg_.policy == spawn_policy::lazy && newly_ready_.size() == 2 &&
        deques_[p].size() + 1 >= cfg_.processors && spawn_as_call(v)) {
      start_running(p, newly_ready_[0], t);
      return;
    }
    std::size_t next_idx = 0;
    if (cfg_.policy != spawn_policy::child_first && newly_ready_.size() > 1) {
      next_idx = newly_ready_.size() - 1;
    }
    for (std::size_t i = 0; i < newly_ready_.size(); ++i) {
      if (i != next_idx) push(p, newly_ready_[i], t);
    }
    start_running(p, newly_ready_[next_idx], t);
  }

  /// Lazy spawning at spawn strand v, whose successors newly_ready_ holds:
  /// holds the continuation until the child's frame returns. False (and
  /// nothing held) when v is not a spawn as sp_builder records one.
  bool spawn_as_call(dag::vertex_id v) {
    const dag::vertex_id child = newly_ready_[0];
    const dag::vertex_id continuation = newly_ready_[1];
    const std::uint32_t depth = g_.vertex_depth(v);
    if (g_.vertex_depth(child) != depth + 1 ||
        g_.vertex_depth(continuation) != depth) {
      return false;
    }
    const dag::vertex_id tail = frame_tail(child);
    if (tail == dag::invalid_vertex) return false;
    held_after_[tail] = continuation;
    return true;
  }

  /// The last strand of the frame whose first strand is `entry`: the
  /// frame's strands are the ones at its depth, each leading to the next
  /// (a spawn's continuation, a join, a lock section), and the last leads
  /// out of the frame. invalid_vertex if two successors share the depth.
  dag::vertex_id frame_tail(dag::vertex_id entry) const {
    const std::uint32_t depth = g_.vertex_depth(entry);
    dag::vertex_id v = entry;
    for (;;) {
      dag::vertex_id next = dag::invalid_vertex;
      for (dag::vertex_id s : g_.successors(v)) {
        if (g_.vertex_depth(s) != depth) continue;
        if (next != dag::invalid_vertex) return dag::invalid_vertex;
        next = s;
      }
      if (next == dag::invalid_vertex) return v;
      v = next;
    }
  }

  void find_work(std::uint32_t p, std::uint64_t t) {
    if (available(p, t) > t) {
      // Offline: leave the deque stealable; come back when rescheduled.
      schedule(available(p, t), p, event_kind::find_work, 0);
      return;
    }
    if (!deques_[p].empty()) {
      const dag::vertex_id v = deques_[p].back();  // bottom: newest
      deques_[p].pop_back();
      --residency_;
      start_running(p, v, t);
      return;
    }
    if (cfg_.processors == 1 || residency_ == 0) {
      sleepers_.push_back(p);  // nothing to steal anywhere: sleep until push
      return;
    }
    // Blind uniform victim choice, resolved after the probe latency.
    std::uint32_t victim = static_cast<std::uint32_t>(rng_.below(cfg_.processors - 1));
    if (victim >= p) ++victim;
    schedule(available(p, t) + probe_cost_, p, event_kind::probe, victim);
  }

  void on_probe(std::uint32_t p, std::uint32_t victim, std::uint64_t t) {
    if (available(p, t) > t) {
      schedule(available(p, t), p, event_kind::find_work, 0);
      return;
    }
    ++stats_[p].steal_attempts;
    if (!deques_[victim].empty()) {
      const dag::vertex_id v = deques_[victim].front();  // top: oldest frame
      deques_[victim].pop_front();
      --residency_;
      ++stats_[p].steals;
      start_running(p, v, t);
      return;
    }
    find_work(p, t);  // miss: try again (or sleep if everything drained)
  }

  const dag::graph& g_;
  machine_config cfg_;
  xoshiro256 rng_;
  std::uint64_t probe_cost_;

  std::vector<std::uint32_t> indeg_;
  std::vector<std::deque<dag::vertex_id>> deques_;
  std::vector<dag::vertex_id> running_;
  std::vector<proc_stats> stats_;
  std::vector<std::uint32_t> sleepers_;
  std::vector<dag::vertex_id> newly_ready_;

  static constexpr std::uint32_t invalid_proc_id = static_cast<std::uint32_t>(-1);
  struct waiter {
    std::uint32_t proc;
    dag::vertex_id vertex;
    std::uint64_t since;
  };

  std::vector<bool> lock_busy_;
  std::vector<std::uint32_t> lock_last_holder_;
  std::vector<std::deque<waiter>> lock_waiters_;
  /// Lazy policy: held_after_[t] = the continuation that resumes when
  /// strand t, the last of a frame that ran as a call, completes.
  std::vector<dag::vertex_id> held_after_;
  std::uint64_t lock_contentions_ = 0;
  std::uint64_t lock_wait_time_ = 0;
  std::uint64_t lock_transfers_ = 0;
  std::vector<trace_entry> trace_;

  std::priority_queue<event, std::vector<event>, std::greater<>> events_;
  std::uint64_t seq_ = 0;
  std::size_t completed_ = 0;
  std::uint64_t makespan_ = 0;
  std::size_t residency_ = 0;
  std::size_t peak_residency_ = 0;
  std::uint64_t stack_frames_ = 0;
  std::uint64_t peak_stack_frames_ = 0;
};

}  // namespace

sim_result simulate(const dag::graph& g, const machine_config& config) {
  return machine(g, config).run();
}

std::vector<sim_result> simulate_sweep(const dag::graph& g,
                                       machine_config config,
                                       const std::vector<unsigned>& processors) {
  std::vector<sim_result> results;
  results.reserve(processors.size());
  for (unsigned p : processors) {
    config.processors = p;
    results.push_back(simulate(g, config));
  }
  return results;
}

}  // namespace cilkpp::sim
