// Shared gtest main for every aer test binary. Identical to gtest_main
// except that when AER_FLIGHT_RECORD_DIR names a directory (CI sets it), a
// flight recorder is installed, so a test that CHECK-fails or dies on a
// fatal signal leaves a crash dump the workflow uploads as an artifact.
// The dump path embeds the pid: ctest runs binaries in parallel, and death
// tests fork children that may dump independently.
#include <unistd.h>

#include <cstdlib>
#include <string>

#include "gtest/gtest.h"
#include "obs/flight_recorder.h"

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  if (const char* dir = std::getenv("AER_FLIGHT_RECORD_DIR");
      dir != nullptr && dir[0] != '\0') {
    aer::obs::FlightRecorder::Install(
        {.path = std::string(dir) + "/flight_" + std::to_string(getpid()) +
                 ".json"},
        nullptr, nullptr);
  }
  return RUN_ALL_TESTS();
}
