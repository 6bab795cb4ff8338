// Mixture (composite) fault model: an ordered list of the concrete
// injectors applied to one chip instance in sequence.
//
// The paper's Section 4 catalogs catastrophic *and* parametric fault
// mechanisms, and real dies see several at once (random spot defects plus
// process-corner deviations plus clustered contamination). A MixtureInjector
// composes any of the four single-mechanism injectors into one defect draw
// per run.
//
// Composition contract (the mixture core in fault/kinds.hpp, which
// sim::FaultModel::mixture runs too):
//  * Every component consumes the stream exactly as its standalone injector
//    would: the per-cell Bernoulli / sample-without-replacement / Gaussian
//    deviation draws never depend on what earlier components did.
//    (ClusteredInjector is the one exception by its standalone definition:
//    its per-cell kill draws already skip cells that are faulty, so in a
//    mixture they see the earlier components' faults — same as standalone.)
//  * First faulter wins: a cell already marked faulty by an earlier
//    component is never re-marked or re-attributed. A component still
//    consumes the classification/attribution draw of an absorbed kill
//    (stream alignment); the record is simply not emitted.
#pragma once

#include <variant>
#include <vector>

#include "biochip/hex_array.hpp"
#include "common/rng.hpp"
#include "fault/fault_model.hpp"
#include "fault/injector.hpp"
#include "fault/parametric.hpp"

namespace dmfb::fault {

/// Applies each component injector in order (see the composition contract
/// above). The components' own constructors validate their parameters.
class MixtureInjector {
 public:
  using Component = std::variant<BernoulliInjector, FixedCountInjector,
                                 ClusteredInjector, ParametricInjector>;

  /// At least one component is required.
  explicit MixtureInjector(std::vector<Component> components);

  const std::vector<Component>& components() const noexcept {
    return components_;
  }

  /// Marks faulty cells on `array` (which must start healthy) and returns
  /// the first-faulter-wins fault map, in component order.
  FaultMap inject(biochip::HexArray& array, Rng& rng) const;

  /// v2 contract: the same composition rules on one shared counter stream —
  /// components run in order, each consuming its standalone inject_v2 draw
  /// sequence (fault/kinds.hpp); first faulter wins, and an absorbed kill
  /// still consumes its classification/attribution draw.
  FaultMap inject_v2(biochip::HexArray& array, CounterStream& stream) const;

 private:
  std::vector<Component> components_;
};

}  // namespace dmfb::fault
