#include "analysis/verify.hpp"

#include <sstream>

#include "analysis/models.hpp"
#include "common/check.hpp"

namespace acsr::analysis {

void verify_engine_or_throw(const std::string& name,
                            const vgpu::DeviceSpec& spec) {
  if (!knows_engine(name)) return;  // factory reports unknown names itself
  const std::vector<Violation> vs = verify_engine(name, spec);
  if (vs.empty()) return;
  std::ostringstream os;
  os << "ACSR_VERIFY: engine '" << name << "' failed static verification on "
     << spec.name << " (" << vs.size() << " violation"
     << (vs.size() == 1 ? "" : "s") << "):";
  for (const Violation& v : vs) os << "\n  " << v.str();
  ACSR_CHECK_MSG(false, os.str());
}

}  // namespace acsr::analysis
