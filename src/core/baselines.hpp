// Prior-art defense baselines the paper compares against (Tables 4, 5, 6).
//
// The paper quotes the original publications' numbers; we additionally
// *implement* each mechanism so the benches can measure all defenses under
// one attack harness on the same benchmarks. Every baseline routes through
// the staged pipeline's `route_design` (core/pipeline.hpp). The ones that
// keep the netlist take a stage-1 `PlacedDesign` (`place_design`, or the
// sweep's cached `LayoutCache::placed`), so a buffered placement keeps its
// sized netlist in `LayoutResult::sized_netlist`; pin swapping places its
// own erroneous netlist.
//
//  - Placement perturbation, Wang et al. [5]: selectively swap gate
//    locations after placement (netlist untouched).
//  - Randomization strategies, Sengupta et al. [8]: location shuffling
//    within candidate classes — Random (any gate), G-Color (gates of equal
//    fan-in), G-Type1 (identical cell type), G-Type2 (same logic function,
//    any drive strength).
//  - Pin swapping, Rajendran et al. [3]: a small number of real connection
//    swaps corrected in the BEOL, without lifting or correction cells.
//  - Routing perturbation, Wang et al. [12]: selected nets are detoured and
//    elevated above the split layer (netlist untouched).
//  - Routing blockage, Magana et al. [7]: lateral routing blockages force
//    wires upward implicitly.
#pragma once

#include "core/pipeline.hpp"

#include <cstdint>

namespace sm::core {

enum class PerturbStrategy { Random, GColor, GType1, GType2 };

/// [5]/[8]: swap the locations of `fraction` of the placed gates within the
/// strategy's candidate classes, and route. Swaps are bounded to
/// `radius_frac` of the die width — the published schemes bound
/// displacement to keep the layout routable, which is also why they only
/// dent the proximity signal instead of destroying it. Perturbs a *copy*
/// of `placed`, so one placement serves every baseline defense of a
/// (bench, seed) pair.
LayoutResult layout_placement_perturbed(const netlist::Netlist& nl,
                                        const FlowOptions& opts,
                                        const PlacedDesign& placed,
                                        PerturbStrategy strategy,
                                        double fraction, std::uint64_t seed,
                                        double radius_frac = 0.2);

/// [3]: `num_swaps` real connection swaps (tracked in the ledger for BEOL
/// correction), placed (without buffering) and routed without lifting or
/// correction cells.
struct SwappedLayout {
  netlist::Netlist erroneous;
  SwapLedger ledger;
  LayoutResult layout;
};
SwappedLayout layout_pin_swapped(const netlist::Netlist& nl,
                                 const FlowOptions& opts,
                                 std::size_t num_swaps, std::uint64_t seed);

/// [12]: elevate and detour `fraction` of the nets above `elevate_to`.
LayoutResult layout_routing_perturbed(const netlist::Netlist& nl,
                                      const FlowOptions& opts,
                                      const PlacedDesign& placed,
                                      double fraction, int elevate_to,
                                      std::uint64_t seed);

/// [7]: scatter `num_blockages` square lateral blockages of `size_um` on
/// layers up to `max_layer`, then route normally.
LayoutResult layout_routing_blockage(const netlist::Netlist& nl,
                                     const FlowOptions& opts,
                                     const PlacedDesign& placed,
                                     int num_blockages, double size_um,
                                     int max_layer, std::uint64_t seed);

}  // namespace sm::core
