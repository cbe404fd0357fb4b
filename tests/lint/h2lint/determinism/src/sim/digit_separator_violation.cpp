// Fixture: wall-clock rule after a C++14 digit separator. A stripper that
// reads the ' in 1'000 as the opening quote of a char literal blanks out
// the rest of the line and hides the clock read behind it.
#include <ctime>

namespace h2priv::sim {

long long budget_ms() {
  return 1'000 + time(nullptr);  // seeded violation: wall-clock
}

}  // namespace h2priv::sim
