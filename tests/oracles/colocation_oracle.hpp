// All-pairs reference for core::ColocationIndex: the co-location rules of
// paper footnote 4 stated pair by pair, O(k²) per snapshot. The
// hashed-cell kernel must reproduce it bit for bit
// (tests/core/colocation_test.cpp).
#pragma once

#include <algorithm>
#include <vector>

#include "core/colocation.hpp"
#include "core/snapshot.hpp"
#include "geometry/vec2.hpp"

namespace cohesion::oracles {

/// Keep a neighbour iff no earlier kept neighbour is co-located with it.
inline void collapse_colocated(std::vector<core::ObservedRobot>& nb) {
  std::vector<core::ObservedRobot> collapsed;
  for (const auto& o : nb) {
    const bool dup =
        std::any_of(collapsed.begin(), collapsed.end(), [&](const core::ObservedRobot& c) {
          return geom::almost_equal(c.position, o.position, core::kColocationEps);
        });
    if (!dup) collapsed.push_back(o);
  }
  nb = std::move(collapsed);
}

/// Flag every neighbour co-located with some other neighbour.
inline void flag_colocated(std::vector<core::ObservedRobot>& nb) {
  for (std::size_t i = 0; i < nb.size(); ++i) {
    for (std::size_t j = 0; j < nb.size(); ++j) {
      if (i != j && geom::almost_equal(nb[i].position, nb[j].position, core::kColocationEps)) {
        nb[i].multiplicity = true;
        break;
      }
    }
  }
}

}  // namespace cohesion::oracles
