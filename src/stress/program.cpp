#include "stress/program.hpp"

#include <cstdio>
#include <initializer_list>
#include <utility>

namespace cilkpp::stress {

namespace {

/// Frames deeper than this stop generating nested parallelism: bounds the
/// host stack under every engine (elision runs the whole tree inline).
constexpr unsigned max_frame_depth = 5;

struct gen_state {
  xoshiro256 rng;
  program* p;
  unsigned budget = 0;  ///< nodes still allowed
  std::uint32_t next_id = 0;
};

void note_depth(gen_state& g, unsigned depth) {
  if (depth > g.p->max_depth) g.p->max_depth = depth;
}

void note_width(gen_state& g, std::uint32_t width) {
  if (width > g.p->max_spawn_width) g.p->max_spawn_width = width;
}

prog_node make_work(gen_state& g) {
  prog_node n;
  n.kind = op::work;
  n.id = g.next_id++;
  n.cost = 1 + g.rng.below(50);
  n.slot = g.p->num_slots++;
  n.radd = g.rng.below(4) == 0;
  n.rlist = g.rng.below(5) == 0;
  if (n.radd) g.p->uses_radd = true;
  if (n.rlist) g.p->uses_rlist = true;
  ++g.p->num_work;
  g.p->expected_work += n.cost;
  return n;
}

/// Deque entries the lazy-splitting parallel_for spine pushes before its
/// sync: one per halving of the remaining range (the body(ctx, i) spine of
/// pfor_detail::split, runtime/cilk_for.hpp).
std::uint32_t pfor_spine_width(std::uint32_t iters, std::uint32_t grain) {
  std::uint32_t width = 0;
  std::uint32_t range = iters;
  while (range > grain) {
    ++width;
    range -= range / 2;
  }
  return width;
}

prog_node make_pfor(gen_state& g, unsigned depth) {
  prog_node n;
  n.kind = op::pfor;
  n.id = g.next_id++;
  n.iters = 1 + static_cast<std::uint32_t>(g.rng.below(24));
  // Grain mix deliberately includes grain > iters (must run serially) and
  // grain 1 (maximum task churn).
  switch (g.rng.below(4)) {
    case 0: n.grain = 1; break;
    case 1: n.grain = 2; break;
    case 2: n.grain = 1 + static_cast<std::uint32_t>(g.rng.below(8)); break;
    default: n.grain = n.iters + 3; break;
  }
  n.cost = 1 + g.rng.below(8);
  n.cell_base = g.p->num_cells;
  n.radd = g.rng.below(4) == 0;
  if (n.radd) g.p->uses_radd = true;
  g.p->num_cells += n.iters;
  ++g.p->num_pfor;
  g.p->expected_work += std::uint64_t{n.iters} * n.cost;
  const std::uint32_t spine = pfor_spine_width(n.iters, n.grain);
  note_width(g, spine == 0 ? 1 : spine);
  // The loop's call frame plus the splitter recursion below it.
  note_depth(g, depth + 1 + spine);
  return n;
}

/// A strided-array write: `iters` spawned lanes, each owning one full
/// 64-byte stripe of the pool — sibling writers on DISJOINT cache lines,
/// so generated programs stay memlens-clean by construction (the mirror of
/// make_lock_block's deadlock-free-by-construction pool discipline).
prog_node make_stripe_write(gen_state& g, unsigned depth) {
  prog_node n;
  n.kind = op::stripe_write;
  n.id = g.next_id++;
  n.iters = 2 + static_cast<std::uint32_t>(g.rng.below(4));  // lanes
  n.cost = 1 + g.rng.below(8);
  n.stripe_base = g.p->num_stripes;
  g.p->num_stripes += n.iters;  // one private stripe per lane
  ++g.p->num_stripe_writes;
  g.p->expected_work += std::uint64_t{n.iters} * n.cost;
  note_width(g, n.iters);
  note_depth(g, depth + 1);
  return n;
}

prog_node gen_tree(gen_state& g, unsigned depth);

void gen_children(gen_state& g, prog_node& n, unsigned count, unsigned depth) {
  n.children.reserve(count);
  for (unsigned i = 0; i < count; ++i) n.children.push_back(gen_tree(g, depth));
}

/// A critical section: acquire `locks` in order, run 1–2 work leaves
/// inside, release in reverse. Children are ALWAYS plain work leaves — a
/// spawn or sync inside would be a held-across-boundary lint by
/// definition, and generated programs must stay lint-clean. Lock choice
/// follows the disjoint-pool discipline documented in program.hpp.
prog_node make_lock_block(gen_state& g, unsigned depth) {
  prog_node n;
  n.kind = op::lock_block;
  n.id = g.next_id++;
  if (g.rng.below(2) == 0) {
    // Ordered pool: a contiguous ascending run inside {0..3}, size 1–3 —
    // nested locking with a globally consistent order.
    const std::uint32_t count = 1 + static_cast<std::uint32_t>(g.rng.below(3));
    const std::uint32_t start =
        static_cast<std::uint32_t>(g.rng.below(4 - count + 1));
    for (std::uint32_t i = 0; i < count; ++i) n.locks.push_back(start + i);
  } else {
    // Gate pattern: the gate first, then gated locks in a random order —
    // inconsistent ordering that the gate makes harmless.
    n.locks.push_back(stress_gate_lock);
    switch (g.rng.below(4)) {
      case 0: n.locks.push_back(5); break;
      case 1: n.locks.push_back(6); break;
      case 2: n.locks.push_back(5); n.locks.push_back(6); break;
      default: n.locks.push_back(6); n.locks.push_back(5); break;
    }
  }
  const unsigned leaves = 1 + static_cast<unsigned>(g.rng.below(2));
  for (unsigned i = 0; i < leaves; ++i) n.children.push_back(make_work(g));
  ++g.p->num_lock_blocks;
  g.p->num_locks = stress_lock_count;
  note_depth(g, depth);
  return n;
}

prog_node gen_tree(gen_state& g, unsigned depth) {
  if (g.budget > 0) --g.budget;
  const bool leaf_only = g.budget == 0 || depth >= max_frame_depth;
  const std::uint64_t pick = g.rng.below(leaf_only ? 30 : 100);
  if (pick < 22) return make_work(g);
  if (pick < 30) return make_pfor(g, depth);

  if (pick >= 84 && pick < 93) return make_lock_block(g, depth);

  prog_node n;
  n.id = g.next_id++;
  if (pick < 44) {  // seq: stays in the current frame
    n.kind = op::seq;
    gen_children(g, n, 2 + static_cast<unsigned>(g.rng.below(3)), depth);
  } else if (pick < 67) {  // spawn_block
    n.kind = op::spawn_block;
    const unsigned width = 2 + static_cast<unsigned>(g.rng.below(3));
    ++g.p->num_spawn_blocks;
    note_width(g, width);
    gen_children(g, n, width, depth + 1);
  } else if (pick < 79) {  // call_block
    n.kind = op::call_block;
    gen_children(g, n, 1, depth + 1);
  } else if (pick < 84) {  // sync_extra
    n.kind = op::sync_extra;
  } else if (pick < 96) {  // stripe_write (93–95; lock_block took 84–92)
    return make_stripe_write(g, depth);
  } else {  // throw_last
    n.kind = op::throw_last;
    n.throw_index = g.p->num_throws++;
    const unsigned width = 2 + static_cast<unsigned>(g.rng.below(2));
    note_width(g, width);
    gen_children(g, n, width, depth + 1);
  }
  note_depth(g, depth);
  return n;
}

/// Serial-order walk mirroring the interpreter, to precompute the list
/// reducer's expected (deterministic) value.
void walk_rlist(const prog_node& n, std::vector<std::uint32_t>& out) {
  if (n.kind == op::work && n.rlist) out.push_back(n.id);
  for (const prog_node& c : n.children) walk_rlist(c, out);
}

void describe_node(const prog_node& n, unsigned indent, std::string& out) {
  out.append(indent * 2, ' ');
  char buf[160];
  switch (n.kind) {
    case op::seq:
      std::snprintf(buf, sizeof(buf), "seq#%u\n", n.id);
      break;
    case op::spawn_block:
      std::snprintf(buf, sizeof(buf), "spawn#%u width=%zu\n", n.id,
                    n.children.size());
      break;
    case op::call_block:
      std::snprintf(buf, sizeof(buf), "call#%u\n", n.id);
      break;
    case op::sync_extra:
      std::snprintf(buf, sizeof(buf), "sync#%u\n", n.id);
      break;
    case op::work:
      std::snprintf(buf, sizeof(buf), "work#%u cost=%llu slot=%u%s%s\n", n.id,
                    static_cast<unsigned long long>(n.cost), n.slot,
                    n.radd ? " +radd" : "", n.rlist ? " +rlist" : "");
      break;
    case op::pfor:
      std::snprintf(buf, sizeof(buf),
                    "pfor#%u iters=%u grain=%u cost=%llu cells@%u%s\n", n.id,
                    n.iters, n.grain, static_cast<unsigned long long>(n.cost),
                    n.cell_base, n.radd ? " +radd" : "");
      break;
    case op::throw_last:
      std::snprintf(buf, sizeof(buf), "throw#%u width=%zu mark=%u\n", n.id,
                    n.children.size(), n.throw_index);
      break;
    case op::lock_block: {
      std::string ids;
      for (const std::uint32_t l : n.locks) {
        if (!ids.empty()) ids += ' ';
        ids += std::to_string(l);
      }
      std::snprintf(buf, sizeof(buf), "lock#%u locks=[%s]\n", n.id,
                    ids.c_str());
      break;
    }
    case op::stripe_write:
      std::snprintf(buf, sizeof(buf), "stripe#%u lanes=%u stripes@%u%s\n",
                    n.id, n.iters, n.stripe_base,
                    n.shared_line ? " SHARED-LINE" : "");
      break;
  }
  out += buf;
  for (const prog_node& c : n.children) describe_node(c, indent + 1, out);
}

}  // namespace

program generate_program(std::uint64_t seed, unsigned size_budget) {
  program p;
  p.seed = seed;
  p.size = size_budget;
  gen_state g{xoshiro256(splitmix64(seed) ^ 0x5bd1e995c11c2009ULL), &p,
              size_budget == 0 ? 1 : size_budget, 0};

  p.root.kind = op::seq;
  p.root.id = g.next_id++;
  const unsigned top = 2 + static_cast<unsigned>(g.rng.below(3));
  for (unsigned i = 0; i < top && (i == 0 || g.budget > 0); ++i) {
    p.root.children.push_back(gen_tree(g, 0));
  }
  if (p.num_work == 0) p.root.children.push_back(make_work(g));
  walk_rlist(p.root, p.expected_rlist);
  if (p.max_spawn_width == 0) p.max_spawn_width = 1;
  return p;
}

std::string program::describe() const {
  char head[240];
  std::snprintf(head, sizeof(head),
                "program seed=%llu size=%u: work=%u pfor=%u cells=%u "
                "throws=%u spawn-blocks=%u lock-blocks=%u stripes=%u "
                "width=%u depth=%u%s%s%s expected-work=%llu\n",
                static_cast<unsigned long long>(seed), size, num_work,
                num_pfor, num_cells, num_throws, num_spawn_blocks,
                num_lock_blocks, num_stripes, max_spawn_width, max_depth,
                uses_radd ? " +radd" : "", uses_rlist ? " +rlist" : "",
                planted ? " PLANTED" : "",
                static_cast<unsigned long long>(expected_work));
  std::string out = head;
  describe_node(root, 1, out);
  return out;
}

namespace {

/// Shared scaffolding for the hand-built planted programs: fixed seed,
/// planted flag, full lock table, counters kept consistent by hand.
program planted_skeleton(std::uint64_t seed) {
  program p;
  p.seed = seed;
  p.size = 0;
  p.planted = true;
  p.num_locks = stress_lock_count;
  p.root.kind = op::seq;
  p.root.id = 0;
  p.max_spawn_width = 1;
  return p;
}

prog_node planted_work(program& p, std::uint32_t id) {
  prog_node w;
  w.kind = op::work;
  w.id = id;
  w.cost = 1;
  w.slot = p.num_slots++;
  ++p.num_work;
  p.expected_work += w.cost;
  return w;
}

prog_node planted_lock_block(program& p, std::uint32_t id,
                             std::initializer_list<std::uint32_t> locks) {
  prog_node n;
  n.kind = op::lock_block;
  n.id = id;
  n.locks.assign(locks.begin(), locks.end());
  n.children.push_back(planted_work(p, id + 1));
  ++p.num_lock_blocks;
  return n;
}

}  // namespace

program make_planted_abba(bool gated) {
  program p = planted_skeleton(gated ? 0xABBA9A7EULL : 0xABBAULL);
  prog_node blk;
  blk.kind = op::spawn_block;
  blk.id = 1;
  // Two logically parallel siblings with opposite acquisition orders. The
  // gated variant prefixes both with the gate lock (2 here — any common
  // lock outside the cycle suppresses the report).
  if (gated) {
    blk.children.push_back(planted_lock_block(p, 2, {2, 0, 1}));
    blk.children.push_back(planted_lock_block(p, 4, {2, 1, 0}));
  } else {
    blk.children.push_back(planted_lock_block(p, 2, {0, 1}));
    blk.children.push_back(planted_lock_block(p, 4, {1, 0}));
  }
  ++p.num_spawn_blocks;
  p.max_spawn_width = 2;
  p.max_depth = 1;
  p.root.children.push_back(std::move(blk));
  return p;
}

program make_planted_false_sharing() {
  program p = planted_skeleton(0xFA15E0ULL);
  // Four parallel lanes each write their own 8-byte word of stripe 0: byte
  // sets disjoint (no race), strands parallel, all writers — false sharing
  // on exactly one line. Lanes must stay ≤ 8, or two lanes would collide on
  // one word and turn the plant into a determinacy race.
  prog_node n;
  n.kind = op::stripe_write;
  n.id = 1;
  n.iters = 4;
  n.cost = 1;
  n.stripe_base = 0;
  n.shared_line = true;
  p.num_stripes = 1;
  ++p.num_stripe_writes;
  p.expected_work += 4;
  p.max_spawn_width = 4;
  p.max_depth = 1;
  p.root.children.push_back(std::move(n));
  return p;
}

program make_planted_held_across_sync() {
  program p = planted_skeleton(0x5319CULL);
  // A lock_block whose critical section contains an explicit sync: the
  // held set is non-empty at a strand boundary — exactly one
  // lock_across_sync on lock 0.
  prog_node n;
  n.kind = op::lock_block;
  n.id = 1;
  n.locks.push_back(0);
  prog_node s;
  s.kind = op::sync_extra;
  s.id = 2;
  n.children.push_back(std::move(s));
  n.children.push_back(planted_work(p, 3));
  ++p.num_lock_blocks;
  p.root.children.push_back(std::move(n));
  return p;
}

}  // namespace cilkpp::stress
