// Structural verifier (opt.hpp).  Everything checked here used to be
// caught only when the machine reached the offending instruction at run
// time; the compile pipeline now rejects ill-formed programs up front,
// and the PassManager re-checks after every pass so a buggy rewrite
// fails loudly at the pass that introduced it.
#include <string>

#include "opt/opt.hpp"

namespace nsc::opt {

using bvram::Instr;
using bvram::Program;

namespace {

[[noreturn]] void die(const std::string& what) {
  throw MachineError("verifier: " + what);
}

}  // namespace

void verify(const Program& p) {
  if (p.num_inputs > p.num_regs) {
    die("num_inputs " + std::to_string(p.num_inputs) +
        " exceeds register count " + std::to_string(p.num_regs));
  }
  if (p.num_outputs > p.num_regs) {
    die("num_outputs " + std::to_string(p.num_outputs) +
        " exceeds register count " + std::to_string(p.num_regs));
  }
  if (!p.last_use.empty() && p.last_use.size() != p.code.size()) {
    die("last_use annotation covers " + std::to_string(p.last_use.size()) +
        " instructions but the program has " + std::to_string(p.code.size()));
  }
  verify_code(p);
}

void verify_code(const Program& p) {
  for (std::size_t i = 0; i < p.code.size(); ++i) {
    const Instr& in = p.code[i];
    auto at = [&](const std::string& what) {
      die(what + " at instruction " + std::to_string(i) + " `" + in.show() +
          "`");
    };
    auto check_reg = [&](std::uint32_t r) {
      if (r >= p.num_regs) at("register V" + std::to_string(r) +
                              " out of range (num_regs=" +
                              std::to_string(p.num_regs) + ")");
    };
    if (in.has_dst()) check_reg(in.dst);
    if (in.op == bvram::Op::SbmRoute &&
        in.imm > std::uint64_t{0xffffffff}) {
      at("sbm-route segment operand does not fit a register index");
    }
    for (std::uint32_t r : in.srcs()) check_reg(r);
    if (in.is_jump() && in.target > p.code.size()) {
      at("jump target " + std::to_string(in.target) + " out of range (" +
         std::to_string(p.code.size()) + " instructions)");
    }
  }
}

}  // namespace nsc::opt
