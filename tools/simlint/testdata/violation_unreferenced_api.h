// Fixture: unreferenced-api — a function declared in a src/ header that no
// file in the tree names outside its own declarations and definitions. Lint as
// part of the whole tree (CI copies it into src/core/).
#ifndef OFC_CORE_SEEDED_VIOLATION_UNREFERENCED_API_H_
#define OFC_CORE_SEEDED_VIOLATION_UNREFERENCED_API_H_

namespace ofc::core {

int SeededUnreferencedFunction(int x);

}  // namespace ofc::core

#endif  // OFC_CORE_SEEDED_VIOLATION_UNREFERENCED_API_H_
