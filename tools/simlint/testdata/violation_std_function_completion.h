// Fixture: std-function-completion — a data-path header that declares a
// completion as a std::function. The rule covers headers under src/store/
// and src/ramcloud/ plus src/core/proxy.h and src/core/cache_agent.h, so lint
// it under such a path (CI copies it into src/store/).
#ifndef OFC_STORE_SEEDED_VIOLATION_STD_FUNCTION_COMPLETION_H_
#define OFC_STORE_SEEDED_VIOLATION_STD_FUNCTION_COMPLETION_H_

#include <functional>

namespace ofc::store {

using SeededCallback = std::function<void(int status)>;  // line 12: std-function-completion

}  // namespace ofc::store

#endif  // OFC_STORE_SEEDED_VIOLATION_STD_FUNCTION_COMPLETION_H_
