// Seed + pedigree → replay exactly one strand (ISSUE 6's debugging loop).
//
// Pedigrees name a strand by the spawn/call ranks that lead to it, so the
// name survives rescheduling, worker counts, and ASLR. This demo walks the
// full workflow the analyzers' reports advertise:
//
//   1. Plant a race: a spawn tree whose leaves each own a slot, except two
//      leaves that also update a shared total. Both cilkscreen engines find
//      the write/write race and report BOTH endpoints' pedigrees; the
//      address-free report fingerprints agree across the engines even
//      though their procedure numberings differ.
//   2. Capture the pedigree from the report and hand it to
//      ped::replay_context: only the spine leading to that strand
//      re-executes — every off-path subtree is skipped, yet the replayed
//      strand keeps its exact pedigree and writes the same value.
//   3. The same loop over a generated stress program: given only the
//      program seed and a slot's pedigree (stress::pedigree_of_slot), a
//      pruned stress::replay_strand reproduces that slot's value without
//      running the rest of the program — no schedule, no chaos policy.
//
// Usage: ./examples/pedigree_replay
#include <cstdint>
#include <iostream>

#include "cilkscreen/detector.hpp"
#include "cilkscreen/report.hpp"
#include "cilkscreen/screen_context.hpp"
#include "cilkscreen/sporder.hpp"
#include "pedigree/pedigree.hpp"
#include "pedigree/replay.hpp"
#include "stress/interp.hpp"
#include "stress/replay.hpp"

using namespace cilkpp;

namespace {

constexpr int kLeaves = 8;

/// The planted bug: every leaf writes its own slot, but leaves 2 and 5
/// also bump the shared total in parallel — a write/write determinacy
/// race. Templated over the engine context, so the identical code runs
/// under both cilkscreen engines AND the replay engine.
template <typename Ctx>
void tally(Ctx& ctx, int lo, int hi, int* parts, int* total) {
  if (hi - lo == 1) {
    parts[lo] = lo * lo;
    ctx.note_write(&parts[lo], sizeof(int), "parts[i]");
    if (lo == 2 || lo == 5) {  // the bug: unsynchronized shared update
      *total += parts[lo];
      ctx.note_write(total, sizeof(int), "total");
    }
    return;
  }
  const int mid = lo + (hi - lo) / 2;
  ctx.spawn([=](auto& c) { tally(c, lo, mid, parts, total); });
  tally(ctx, mid, hi, parts, total);
  ctx.sync();
}

template <typename Detector>
std::uint64_t hunt(const char* engine, Detector& d, screen::race_record* out) {
  int parts[kLeaves] = {};
  int total = 0;
  screen::run_under_detector(
      d, [&](auto& ctx) { tally(ctx, 0, kLeaves, parts, &total); });
  std::cout << engine << ": " << d.races().size() << " race(s)\n";
  for (const auto& r : d.races())
    std::cout << "    " << screen::render_race(r, d.procedures()) << "\n";
  if (out != nullptr && !d.races().empty()) *out = d.races().front();
  return screen::report_set_fingerprint(d.races());
}

}  // namespace

int main() {
  std::cout << "Act 1 — find the race, with pedigrees on both endpoints.\n";
  screen::race_record race;
  screen::detector bags;
  screen::order_detector order;
  const std::uint64_t fp_bags = hunt("SP-bags ", bags, &race);
  const std::uint64_t fp_order = hunt("SP-order", order, nullptr);
  std::cout << "  report-set fingerprints: 0x" << std::hex << fp_bags
            << " vs 0x" << fp_order << std::dec
            << (fp_bags == fp_order ? "  (identical across engines)\n\n"
                                    : "  (MISMATCH — file a bug)\n\n");

  std::cout << "Act 2 — replay only the racing strand.\n";
  const ped::pedigree target = race.second_ped;
  std::cout << "  target pedigree (from the report): "
            << ped::to_string(target) << "\n";
  int parts[kLeaves] = {};
  int total = 0;
  ped::replay_context replay(target);
  int replayed_writes = 0;
  replay.set_write_observer([&](const ped::replay_context::write_event& e) {
    ++replayed_writes;
    std::cout << "    replayed write: " << e.label << " by strand "
              << ped::to_string(e.ped) << "\n";
  });
  tally(replay, 0, kLeaves, parts, &total);
  std::cout << "  reached: " << (replay.reached() ? "yes" : "NO")
            << ", frames entered " << replay.frames_entered() << ", skipped "
            << replay.frames_skipped() << ", writes replayed "
            << replayed_writes << " (full run does " << kLeaves + 2 << ")\n\n";

  std::cout << "Act 3 — the same loop for a stress-fuzz failure report:\n"
            << "  a failure names (seed, pedigree); that pair alone replays "
               "the strand.\n";
  const std::uint64_t seed = 2026;
  stress::program p = stress::generate_program(seed, 16);
  // Ground truth: one full (unpruned) replay of the whole program.
  stress::run_state ref(p);
  {
    ped::replay_context full;
    stress::interp(full, p, p.root, ref);
  }
  const std::size_t victim = p.num_slots / 2;
  const ped::pedigree strand = stress::pedigree_of_slot(p, victim);
  std::cout << "  seed " << seed << ", slot " << victim << " was written by "
            << ped::to_string(strand) << "\n";
  // Round-trip through the printed form, exactly as a human pasting the
  // REPLAY line from a failure report would.
  stress::run_state st(p);
  ped::replay_context pruned(ped::parse(ped::to_string(strand)));
  stress::interp(pruned, p, p.root, st);
  const bool match = *st.slots[victim] == *ref.slots[victim];
  std::cout << "  pruned replay: reached " << (pruned.reached() ? "yes" : "NO")
            << ", frames " << pruned.frames_entered() << " entered / "
            << pruned.frames_skipped() << " skipped, slot value "
            << *st.slots[victim] << " (full run: " << *ref.slots[victim]
            << (match ? ", match)\n" : ", MISMATCH)\n");
  return (fp_bags == fp_order && replay.reached() && pruned.reached() && match)
             ? 0
             : 1;
}
