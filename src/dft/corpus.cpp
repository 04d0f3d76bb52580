#include "dft/corpus.hpp"

#include "common/error.hpp"
#include "common/text.hpp"
#include "dft/builder.hpp"
#include "dft/galileo.hpp"

namespace imcdft::dft::corpus {

std::string galileoCas() {
  return R"(
// Cardiac assist system (Boudali/Crouzen/Stoelinga, DSN'07, Fig. 7).
toplevel "System";
"System"    or  "CPU_unit" "Motor_unit" "Pump_unit";

// CPU unit: warm spare, both CPUs killed by the cross switch or the
// system supervision failing.
"CPU_unit"  wsp "P" "B";
"Trigger"   or  "CS" "SS";
"CPU_fdep"  fdep "Trigger" "P" "B";
"P"  lambda=0.5;
"B"  lambda=0.5 dorm=0.5;
"CS" lambda=0.2;
"SS" lambda=0.2;

// Motor unit: the switch MS matters only if it fails before the primary
// motor; in that case the spare motor can no longer be turned on.
"Motor_unit" csp "MA" "MB";
"MP"         pand "MS" "MA";
"Motor_fdep" fdep "MP" "MB";
"MS" lambda=0.01;
"MA" lambda=1.0;
"MB" lambda=1.0;

// Pump unit: two primary pumps sharing one cold spare; all three pumps
// must fail.
"Pump_unit" and "Pump_A" "Pump_B";
"Pump_A"    csp "PA" "PS";
"Pump_B"    csp "PB" "PS";
"PA" lambda=1.0;
"PB" lambda=1.0;
"PS" lambda=1.0;
)";
}

Dft cas() { return parseGalileo(galileoCas()); }

std::string galileoCps() {
  return R"(
// Cascaded PAND system (DSN'07, Fig. 8).
toplevel "System";
"System" pand "A" "B";
"B"      pand "C" "D";
"A" and "A1" "A2" "A3" "A4";
"C" and "C1" "C2" "C3" "C4";
"D" and "D1" "D2" "D3" "D4";
"A1" lambda=1.0;  "A2" lambda=1.0;  "A3" lambda=1.0;  "A4" lambda=1.0;
"C1" lambda=1.0;  "C2" lambda=1.0;  "C3" lambda=1.0;  "C4" lambda=1.0;
"D1" lambda=1.0;  "D2" lambda=1.0;  "D3" lambda=1.0;  "D4" lambda=1.0;
)";
}

Dft cps() { return parseGalileo(galileoCps()); }

Dft cascadedPands(int modules, int besPerModule, double lambda) {
  require(modules >= 2 && besPerModule >= 1,
          "cascadedPands: need at least 2 modules and 1 BE per module");
  DftBuilder b;
  std::vector<std::string> moduleNames;
  for (int m = 0; m < modules; ++m) {
    std::string name = indexedName("M", m);
    std::vector<std::string> bes;
    for (int i = 0; i < besPerModule; ++i) {
      std::string be = name + "_" + std::to_string(i);
      b.basicEvent(be, lambda);
      bes.push_back(be);
    }
    b.andGate(name, bes);
    moduleNames.push_back(name);
  }
  // Right-leaning cascade: P_k = PAND(M_k, P_{k+1}) like the CPS.
  std::string right = moduleNames.back();
  for (int m = modules - 2; m >= 0; --m) {
    std::string name = m == 0 ? "System" : indexedName("P", m);
    b.pandGate(name, {moduleNames[m], right});
    right = name;
  }
  b.top("System");
  return b.build();
}

Dft cascadedPand(int depth, int width) {
  require(depth >= 2 && width >= 1,
          "cascadedPand: need depth >= 2 and width >= 1");
  DftBuilder b;
  std::vector<std::string> unitNames;
  for (int k = 0; k < depth; ++k) {
    const std::string s = indexedName("_", k);
    // Quarter-step rates are exactly representable, so the family is
    // bit-reproducible across machines; distinct rates per level keep the
    // units in distinct shape buckets (symmetry reduction cannot absorb
    // the chain — the fused engine has to carry it).
    std::vector<std::string> bes;
    for (int i = 0; i < width; ++i) {
      std::string be = "L" + s + "_" + std::to_string(i);
      b.basicEvent(be, 1.0 + 0.25 * k);
      bes.push_back(std::move(be));
    }
    b.andGate("Chain" + s, bes);
    b.basicEvent("PP" + s, 0.75 + 0.25 * k);
    b.basicEvent("PS" + s, 0.5, 0.25);
    b.spareGate("Slot" + s, SpareKind::Warm, {"PP" + s, "PS" + s});
    b.orGate("U" + s, {"Chain" + s, "Slot" + s});
    unitNames.push_back("U" + s);
  }
  // Right-leaning cascade like the CPS: P_k = PAND(U_k, P_{k+1}).
  std::string right = unitNames.back();
  for (int k = depth - 2; k >= 0; --k) {
    std::string name = k == 0 ? "System" : indexedName("P", k);
    b.pandGate(name, {unitNames[k], right});
    right = name;
  }
  b.top("System");
  return b.build();
}

Dft clonedCas(int units) {
  require(units >= 1, "clonedCas: need at least 1 unit");
  DftBuilder b;
  std::vector<std::string> roots;
  for (int u = 0; u < units; ++u) {
    const std::string s = indexedName("_", u);
    // CPU unit: warm spare killed by the cross switch or supervision.
    b.basicEvent("P" + s, 0.5);
    b.basicEvent("B" + s, 0.5, 0.5);
    b.basicEvent("CS" + s, 0.2);
    b.basicEvent("SS" + s, 0.2);
    b.orGate("Trigger" + s, {"CS" + s, "SS" + s});
    b.fdep("CPU_fdep" + s, "Trigger" + s, {"P" + s, "B" + s});
    b.spareGate("CPU_unit" + s, SpareKind::Warm, {"P" + s, "B" + s});
    // Motor unit: the switch matters only before the primary motor fails.
    b.basicEvent("MS" + s, 0.01);
    b.basicEvent("MA" + s, 1.0);
    b.basicEvent("MB" + s, 1.0);
    b.pandGate("MP" + s, {"MS" + s, "MA" + s});
    b.fdep("Motor_fdep" + s, "MP" + s, {"MB" + s});
    b.spareGate("Motor_unit" + s, SpareKind::Cold, {"MA" + s, "MB" + s});
    // Pump unit: two primary pumps sharing one cold spare.
    b.basicEvent("PA" + s, 1.0);
    b.basicEvent("PB" + s, 1.0);
    b.basicEvent("PS" + s, 1.0);
    b.spareGate("Pump_A" + s, SpareKind::Cold, {"PA" + s, "PS" + s});
    b.spareGate("Pump_B" + s, SpareKind::Cold, {"PB" + s, "PS" + s});
    b.andGate("Pump_unit" + s, {"Pump_A" + s, "Pump_B" + s});
    b.orGate("Unit" + s, {"CPU_unit" + s, "Motor_unit" + s, "Pump_unit" + s});
    roots.push_back("Unit" + s);
  }
  if (units == 1) {
    b.top(roots.front());
  } else {
    b.orGate("System", roots);
    b.top("System");
  }
  return b.build();
}

Dft sensorBanks(int banks, int sensorsPerBank) {
  require(banks >= 2 && sensorsPerBank >= 1,
          "sensorBanks: need at least 2 banks and 1 sensor per chain");
  DftBuilder b;
  std::vector<std::string> bankNames;
  for (int k = 0; k < banks; ++k) {
    const std::string s = indexedName("_", k);
    for (const char* side : {"A", "B"}) {
      std::vector<std::string> sensors;
      for (int i = 0; i < sensorsPerBank; ++i) {
        std::string name = std::string("S") + side + s + "_" +
                           std::to_string(i);
        b.basicEvent(name, 1.0);
        sensors.push_back(std::move(name));
      }
      b.andGate(std::string(side) + s, sensors);
    }
    b.pandGate("Bank" + s, {"A" + s, "B" + s});
    bankNames.push_back("Bank" + s);
  }
  b.votingGate("System", 2, bankNames);
  b.top("System");
  return b.build();
}

Dft voterFarm(int units, int need) {
  require(units >= 2 && need >= 1 && need <= units,
          "voterFarm: need units >= 2 and 1 <= need <= units");
  DftBuilder b;
  std::vector<std::string> unitNames;
  for (int u = 0; u < units; ++u) {
    const std::string s = indexedName("_", u);
    // Control chain: the sensor must outlive the controller for the chain
    // to fail (PAND keeps the unit genuinely dynamic).
    b.basicEvent("C1" + s, 0.8);
    b.basicEvent("C2" + s, 1.2);
    b.pandGate("Ctrl" + s, {"C1" + s, "C2" + s});
    // Power slot: primary with a warm standby.
    b.basicEvent("PP" + s, 0.6);
    b.basicEvent("PS" + s, 0.6, 0.3);
    b.spareGate("Power" + s, SpareKind::Warm, {"PP" + s, "PS" + s});
    b.orGate("Unit" + s, {"Ctrl" + s, "Power" + s});
    unitNames.push_back("Unit" + s);
  }
  b.votingGate("System", static_cast<std::uint32_t>(need), unitNames);
  b.top("System");
  return b.build();
}

Dft figure6a() {
  DftBuilder b;
  b.basicEvent("T", 1.0);
  b.basicEvent("A", 1.0);
  b.basicEvent("B", 1.0);
  b.fdep("F", "T", {"A", "B"});
  b.pandGate("System", {"A", "B"});
  b.top("System");
  return b.build();
}

Dft figure6b() {
  DftBuilder b;
  b.basicEvent("T", 1.0);
  b.basicEvent("A", 1.0);
  b.basicEvent("B", 1.0);
  b.basicEvent("S", 1.0, 0.0);  // cold shared spare
  b.fdep("F", "T", {"A", "B"});
  b.spareGate("G1", SpareKind::Cold, {"A", "S"});
  b.spareGate("G2", SpareKind::Cold, {"B", "S"});
  // The paper leaves the gates' parent open.  A symmetric AND would make
  // the claim race unobservable (whoever wins, the system fails exactly
  // when S dies, and weak bisimulation rightly removes the
  // nondeterminism); a PAND keeps the race observable in the measure,
  // which is what the figure is about.
  b.pandGate("System", {"G1", "G2"});
  b.top("System");
  return b.build();
}

Dft figure10a() {
  DftBuilder b;
  b.basicEvent("A", 1.0);
  b.basicEvent("B", 1.0);
  b.basicEvent("C", 1.0, 0.5);
  b.basicEvent("D", 1.0, 0.5);
  b.andGate("primary", {"A", "B"});
  b.andGate("spare", {"C", "D"});
  b.spareGate("System", SpareKind::Warm, {"primary", "spare"});
  b.top("System");
  return b.build();
}

Dft figure10b() {
  DftBuilder b;
  b.basicEvent("A", 1.0);
  b.basicEvent("B", 1.0, 0.5);
  b.basicEvent("C", 1.0, 0.5);
  b.basicEvent("D", 1.0, 0.5);
  b.spareGate("primary", SpareKind::Warm, {"A", "B"});
  b.spareGate("spare", SpareKind::Warm, {"C", "D"});
  b.spareGate("System", SpareKind::Warm, {"primary", "spare"});
  b.top("System");
  return b.build();
}

Dft figure10c() {
  DftBuilder b;
  b.basicEvent("T", 1.0);
  b.basicEvent("B", 1.0);
  b.basicEvent("C", 1.0);
  b.basicEvent("E", 1.0);
  // The FDEP triggers the failure of gate A (a sub-system), not of its
  // parts: C keeps running.
  b.andGate("A", {"B", "C"});
  b.fdep("F", "T", {"A"});
  b.andGate("System", {"A", "E"});
  b.top("System");
  return b.build();
}

Dft mutexSwitch() {
  DftBuilder b;
  // One physical switch with two exclusive failure modes and a pump; the
  // system fails when the switch fails open, or fails closed together with
  // the pump.
  b.basicEvent("fail_open", 0.5);
  b.basicEvent("fail_closed", 0.3);
  b.basicEvent("pump", 1.0);
  b.mutex({"fail_open", "fail_closed"});
  b.andGate("closed_and_pump", {"fail_closed", "pump"});
  b.orGate("System", {"fail_open", "closed_and_pump"});
  b.top("System");
  return b.build();
}

std::string galileoHecs() {
  return R"(
// Hypothetical example computer system (HECS), illustrative rates.
toplevel "HECS";
"HECS" or "Processors" "Memory" "Buses" "Application";

// Two processors sharing one cold spare; both slots must be dead.
"Processors" and "Proc_1" "Proc_2";
"Proc_1" csp "P1" "PA";
"Proc_2" csp "P2" "PA";
"P1" lambda=0.1;
"P2" lambda=0.1;
"PA" lambda=0.1;

// Five memory units, three needed.  M1/M2 hang off interface MIU1,
// M4/M5 off MIU2, M3 is reachable through either interface.
"Memory" 3of5 "M1" "M2" "M3" "M4" "M5";
"MIU_both" and "MIU1" "MIU2";
"F1" fdep "MIU1" "M1" "M2";
"F2" fdep "MIU2" "M4" "M5";
"F3" fdep "MIU_both" "M3";
"M1" lambda=0.06;  "M2" lambda=0.06;  "M3" lambda=0.06;
"M4" lambda=0.06;  "M5" lambda=0.06;
"MIU1" lambda=0.05; "MIU2" lambda=0.05;

// Redundant buses.
"Buses" and "Bus1" "Bus2";
"Bus1" lambda=0.02;
"Bus2" lambda=0.02;

// Application: hardware, software, or the operator console.
"Application" or "HW" "SW";
"HW" lambda=0.05;
"SW" lambda=0.08;
)";
}

Dft hecs() { return parseGalileo(galileoHecs()); }

Dft repairableAnd(double lambda, double mu) {
  DftBuilder b;
  b.basicEvent("A", lambda, std::nullopt, mu);
  b.basicEvent("B", lambda, std::nullopt, mu);
  b.andGate("System", {"A", "B"});
  b.top("System");
  return b.build();
}

}  // namespace imcdft::dft::corpus
