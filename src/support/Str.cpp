//===- support/Str.cpp ----------------------------------------------------===//

#include "support/Str.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace jsmm;

std::string jsmm::joinStrings(const std::vector<std::string> &Parts,
                              const std::string &Sep) {
  std::string Out;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

std::string jsmm::padRight(const std::string &S, size_t Width) {
  if (S.size() >= Width)
    return S;
  return S + std::string(Width - S.size(), ' ');
}

std::string jsmm::padLeft(const std::string &S, size_t Width) {
  if (S.size() >= Width)
    return S;
  return std::string(Width - S.size(), ' ') + S;
}

std::vector<uint8_t> jsmm::bytesOfValue(uint64_t Value, unsigned Width) {
  std::vector<uint8_t> Bytes(Width);
  for (unsigned I = 0; I < Width && I < 8; ++I)
    Bytes[I] = static_cast<uint8_t>(Value >> (8 * I));
  return Bytes;
}

uint64_t jsmm::valueOfBytes(const std::vector<uint8_t> &Bytes) {
  uint64_t Value = 0;
  for (size_t I = 0; I < Bytes.size() && I < 8; ++I)
    Value |= uint64_t(Bytes[I]) << (8 * I);
  return Value;
}

std::string jsmm::hexByte(uint8_t Byte) {
  static const char *Digits = "0123456789abcdef";
  std::string Out = "0x";
  Out += Digits[Byte >> 4];
  Out += Digits[Byte & 0xf];
  return Out;
}

std::optional<uint64_t> jsmm::parseUnsigned64(const std::string &S) {
  // Accepts decimal, or hex with an 0x/0X prefix (the litmus format's value
  // syntax). A leading zero is plain decimal, never octal.
  size_t I = 0;
  bool Hex = false;
  if (S.size() > 2 && S[0] == '0' && (S[1] == 'x' || S[1] == 'X')) {
    Hex = true;
    I = 2;
  }
  if (I == S.size())
    return std::nullopt;
  uint64_t Value = 0;
  for (; I < S.size(); ++I) {
    char C = S[I];
    unsigned Digit;
    if (C >= '0' && C <= '9')
      Digit = static_cast<unsigned>(C - '0');
    else if (Hex && C >= 'a' && C <= 'f')
      Digit = static_cast<unsigned>(C - 'a') + 10;
    else if (Hex && C >= 'A' && C <= 'F')
      Digit = static_cast<unsigned>(C - 'A') + 10;
    else
      return std::nullopt;
    uint64_t Base = Hex ? 16 : 10;
    if (Value > (~uint64_t(0) - Digit) / Base)
      return std::nullopt; // overflow
    Value = Value * Base + Digit;
  }
  return Value;
}

std::optional<unsigned> jsmm::parseUnsigned(const std::string &S) {
  if (S.empty())
    return std::nullopt;
  uint64_t Value = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return std::nullopt; // decimal only: no signs, spaces or 0x prefix
    Value = Value * 10 + static_cast<unsigned>(C - '0');
    if (Value > ~0u)
      return std::nullopt; // overflow
  }
  return static_cast<unsigned>(Value);
}

std::optional<unsigned> jsmm::parseThreadCount(const std::string &Tool,
                                               const std::string &Flag,
                                               const std::string &Value) {
  std::optional<unsigned> N = parseUnsigned(Value);
  if (N && *N <= MaxThreadCount)
    return N;
  std::fprintf(stderr,
               "%s: invalid %s value '%s' (expected an integer from 0 to "
               "%u; 0 = one per hardware thread)\n",
               Tool.c_str(), Flag.c_str(), Value.c_str(), MaxThreadCount);
  return std::nullopt;
}

std::optional<std::string> jsmm::readFileText(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}
