#include "fault/mixture.hpp"

#include "common/contracts.hpp"
#include "fault/kinds.hpp"

namespace dmfb::fault {

MixtureInjector::MixtureInjector(std::vector<Component> components)
    : components_(std::move(components)) {
  DMFB_EXPECTS(!components_.empty());
}

FaultMap MixtureInjector::inject(biochip::HexArray& array, Rng& rng) const {
  return record_faults(*this, array, rng);
}

FaultMap MixtureInjector::inject_v2(biochip::HexArray& array,
                                    CounterStream& stream) const {
  return record_faults(*this, array, stream);
}

}  // namespace dmfb::fault
