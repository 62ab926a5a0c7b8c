// Table 4: network-flow proximity attack [5] vs placement-centric defenses
// on the ISCAS-85 suite. Metrics averaged over splits after M3, M4, M5 (the
// paper's setup). Columns:
//   Original          — unprotected layout,
//   PlacePerturb [5]  — selective gate-location perturbation,
//   Random/G-Color/G-Type1/G-Type2 [8] — Sengupta et al. strategies (CCR),
//   Proposed          — this paper's scheme (CCR on randomized connections,
//                       OER/HD of the attacker's recovered netlist).
//
// Expected shape: Original highly attackable (high CCR, low HD); placement
// perturbation helps marginally; the proposed scheme reaches 0% CCR with
// OER ~100% and HD ~40%.
//
// A pivot over one sweep (bench/common.hpp pivot_table_main): every column
// is a grid defense, so --jobs spreads cells and --store/--resume make the
// table resumable.
#include "common.hpp"

namespace {

int run(int argc, char** argv) {
  using sm::sweep::Defense;
  using M = sm::sweep::Means;
  return sm::bench::pivot_table_main(
      argc, argv,
      "Table 4: proximity attack vs placement-perturbation defenses "
      "(ISCAS-85, averaged over splits M3/M4/M5)",
      {{"Orig CCR", Defense::Unprotected, &M::ccr, true},
       {"Orig OER", Defense::Unprotected, &M::oer, true},
       {"Orig HD", Defense::Unprotected, &M::hd, true},
       {"Perturb[5] CCR", Defense::PlacePerturb, &M::ccr},
       {"Perturb[5] HD", Defense::PlacePerturb, &M::hd},
       {"Random[8] CCR", Defense::GRandom, &M::ccr},
       {"G-Color[8] CCR", Defense::GColor, &M::ccr},
       {"G-Type1[8] CCR", Defense::GType1, &M::ccr},
       {"G-Type2[8] CCR", Defense::GType2, &M::ccr},
       {"Prop CCR", Defense::Proposed, &M::ccr_protected, true},
       {"Prop OER", Defense::Proposed, &M::oer, true},
       {"Prop HD", Defense::Proposed, &M::hd, true}});
}

}  // namespace

int main(int argc, char** argv) {
  return sm::bench::guarded_main(argc, argv, run);
}
