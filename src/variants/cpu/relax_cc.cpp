// Registers one CPU model's connected-components relaxation variants.
#include "variants/cpu/relax.hpp"

namespace indigo::variants::cpu {

void register_cc(Model m) { register_relax_variants<CcProblem>(m); }

}  // namespace indigo::variants::cpu
