// Reproduces Table II and the derived timing quantities of §V:
// ta = 2000 ms, tb = 100 ms, tl = 50 ms, td = 1000 ms, hence
// tm = 2 tb + tl = 250 ms, ts = 4 tm = 1000 ms, theta = td/ta = 0.5, and
// the periodic-update fractions 1/2, 9/10, 19/20, 39/40 of §V-C.
#include <iostream>

#include "sim/timing.h"
#include "util/table.h"

int main() {
  using namespace mhca;
  RoundTiming t;

  std::cout << "=== Table II: round timing parameters ===\n";
  TablePrinter params({"parameter", "value (ms)", "source"});
  params.row("round ta", fixed(t.ta_ms, 0), "Table II");
  params.row("local broadcast tb", fixed(t.tb_ms, 0), "Table II");
  params.row("local computation tl", fixed(t.tl_ms, 0), "Table II");
  params.row("data transmission td", fixed(t.td_ms, 0), "Table II");
  params.row("mini-round tm = 2tb+tl", fixed(t.tm_ms(), 0), "derived (250)");
  params.row("decision ts = 4tm", fixed(t.ts_ms(), 0), "derived (1000)");
  params.print(std::cout);

  std::cout << "\nderived theta = td/ta = " << fixed(t.theta(), 3)
            << "  (paper: actual throughput per decision slot = 0.5 Rx)\n"
            << "consistency ts + td == ta: "
            << (t.is_consistent() ? "OK" : "VIOLATED") << "\n\n";

  TablePrinter frac({"update period y", "realized fraction", "paper value"});
  frac.row(1, fixed(t.periodic_fraction(1), 4), "1/2");
  frac.row(5, fixed(t.periodic_fraction(5), 4), "9/10");
  frac.row(10, fixed(t.periodic_fraction(10), 4), "19/20");
  frac.row(20, fixed(t.periodic_fraction(20), 4), "39/40");
  frac.print(std::cout);
  // A violated Table II identity fails the run (ctest label `paper`).
  return t.is_consistent() ? 0 : 1;
}
