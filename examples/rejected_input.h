// Input a library rejects — a util::ContractViolation from a precondition
// check or a dag::DaxParseError from the DAX reader — ends an example with
// one "error: ..." line on stderr and the usage exit code 2, not an abort.
// Every example's main is a function-try-block:
//
//   int main(int argc, char** argv) try {
//     ...
//   } catch (const wire::util::ContractViolation& e) {
//     return wire::examples::reject(e);
//   } catch (const wire::dag::DaxParseError& e) {
//     return wire::examples::reject(e);
//   }
#pragma once

#include <cstdio>
#include <exception>

#include "dag/dax.h"
#include "util/check.h"

namespace wire::examples {

inline int reject(const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}

}  // namespace wire::examples
