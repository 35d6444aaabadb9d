//===- engine/TargetModel.cpp ---------------------------------------------===//

#include "engine/TargetModel.h"

using namespace jsmm;

const char *TargetModel::name() const {
  switch (Arch) {
  case TargetArch::X86:
    return "x86-tso";
  case TargetArch::ArmV8:
    return "armv8-uni";
  case TargetArch::ArmV7:
    return "armv7";
  case TargetArch::Power:
    return "power";
  case TargetArch::RiscV:
    return "riscv";
  case TargetArch::ImmLite:
    return "immlite";
  }
  return "?";
}

bool TargetModel::allows(const TargetExecution &X) const {
  return isTargetConsistent(X, Arch);
}

const std::vector<TargetModel> &TargetModel::all() {
  static const std::vector<TargetModel> Models = {
      TargetModel(TargetArch::X86),   TargetModel(TargetArch::ArmV8),
      TargetModel(TargetArch::ArmV7), TargetModel(TargetArch::Power),
      TargetModel(TargetArch::RiscV), TargetModel(TargetArch::ImmLite)};
  return Models;
}

const TargetModel *TargetModel::byName(const std::string &Name) {
  for (const TargetModel &M : all())
    if (Name == M.name())
      return &M;
  return nullptr;
}

