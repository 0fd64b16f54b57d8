// Calibration probe: a fixed piece of work whose CPU time tracks the
// speed the shared host currently gives this machine.
//
// The reference box is a virtual machine on a shared host; the CPU time a
// tool needs for the same input moves by up to 2x over minutes with the
// neighbours' load, and a fixed kernel that formats and parses numbers
// (what the tools spend their time on) moves with it. perfbench/run.py
// divides the tools' CPU time by the probe's, measured in step with them
// over the same run, so the end-to-end figures follow the program, not
// the host.
//
// The probe is compiled from this directory alone, with fixed flags, so
// no change to the repository's sources or build moves it.
#pragma once

namespace perfbench {

struct ProbeResult {
  double cpu_s;     // thread CPU time of the fixed work
  double checksum;  // the same on every run: the work was done in full
};

ProbeResult run_probe();

}  // namespace perfbench
