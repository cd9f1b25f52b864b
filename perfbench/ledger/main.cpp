// The ledger binary. `ledger gen …` runs one benchmark workload end to end
// (it launches `ledger server …` hosts itself); see ../README.md.
#include <cstdio>
#include <exception>
#include <string>

#include "common.h"

namespace perfbench {
int server_main(const Params& params);
int loadgen_main(const Params& params);
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "ledger: refusing to run a non-optimised build (unit costs and layer "
                       "shares are only comparable between optimised builds)\n");
  return 3;
#endif
  if (argc < 2) {
    std::fprintf(stderr, "usage: ledger gen|server --workload W --dir D [options]\n");
    return 2;
  }
  const std::string mode = argv[1];
  try {
    const perfbench::Params params = perfbench::Params::parse(argc, argv, 2);
    if (mode == "server") return perfbench::server_main(params);
    if (mode == "gen") return perfbench::loadgen_main(params);
    std::fprintf(stderr, "ledger: unknown mode %s\n", mode.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger %s: %s\n", mode.c_str(), e.what());
  }
  return 2;
}
