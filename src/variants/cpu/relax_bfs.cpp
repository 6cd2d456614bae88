// Registers one CPU model's breadth-first-search relaxation variants.
#include "variants/cpu/relax.hpp"

namespace indigo::variants::cpu {

void register_bfs(Model m) { register_relax_variants<BfsProblem>(m); }

}  // namespace indigo::variants::cpu
