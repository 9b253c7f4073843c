// Compact text form of a WorkflowWorlds' OUT sets, for golden comparisons
// on instances too large for the naive enumerator:
// "m<i>{<x>:<y>,<y>;...}" per module, values concatenated digit by digit.
#ifndef PROVVIEW_TESTS_WORLD_RENDER_H_
#define PROVVIEW_TESTS_WORLD_RENDER_H_

#include <sstream>
#include <string>

#include "privacy/possible_worlds.h"

namespace provview {

inline std::string RenderOutSets(const WorkflowWorlds& worlds) {
  std::ostringstream os;
  for (size_t i = 0; i < worlds.out_sets.size(); ++i) {
    os << "m" << i << "{";
    for (const auto& [x, outs] : worlds.out_sets[i]) {
      for (Value v : x) os << v;
      os << ":";
      const char* sep = "";
      for (const Tuple& y : outs) {
        os << sep;
        for (Value v : y) os << v;
        sep = ",";
      }
      os << ";";
    }
    os << "}";
  }
  return os.str();
}

}  // namespace provview

#endif  // PROVVIEW_TESTS_WORLD_RENDER_H_
