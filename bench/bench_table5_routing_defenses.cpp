// Table 5: network-flow proximity attack [5] vs routing-centric defenses on
// the ISCAS-85 suite (averaged over splits M3/M4/M5):
//   Pin swapping [3]        — a few real connection swaps, no lifting,
//   Routing perturbation [12] — selected nets elevated/detoured,
//   Proposed                — this paper's scheme.
//
// Expected shape: pin swapping leaves the bulk of connections recoverable
// (paper: 87% CCR); routing perturbation lands in between (paper: ~72%);
// the proposed scheme reaches 0% CCR / ~100% OER / ~40% HD.
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
      "Table 5: proximity attack vs routing-perturbation defenses "
      "(ISCAS-85, averaged over splits M3/M4/M5)",
      {{"Orig CCR", Defense::Unprotected, &M::ccr},
       {"Orig HD", Defense::Unprotected, &M::hd},
       {"PinSwap[3] CCR", Defense::PinSwap, &M::ccr},
       {"PinSwap[3] HD", Defense::PinSwap, &M::hd},
       {"RoutePerturb[12] CCR", Defense::RoutePerturb, &M::ccr},
       {"RoutePerturb[12] OER", Defense::RoutePerturb, &M::oer},
       {"RoutePerturb[12] HD", Defense::RoutePerturb, &M::hd},
       {"Prop CCR", Defense::Proposed, &M::ccr_protected},
       {"Prop OER", Defense::Proposed, &M::oer},
       {"Prop HD", Defense::Proposed, &M::hd}});
}

}  // namespace

int main(int argc, char** argv) {
  return sm::bench::guarded_main(argc, argv, run);
}
