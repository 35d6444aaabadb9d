//===- core/Event.cpp -----------------------------------------------------===//

#include "core/Event.h"

#include "support/Str.h"

#include <cassert>

using namespace jsmm;

const char *jsmm::modeName(Mode M) {
  switch (M) {
  case Mode::Unordered:
    return "Un";
  case Mode::SeqCst:
    return "SC";
  case Mode::Init:
    return "I";
  }
  return "?";
}

uint8_t Event::writtenByteAt(unsigned Loc) const {
  assert(writesByte(Loc) && "location not written by this event");
  return WriteBytes[Loc - Index];
}

std::string Event::toString() const {
  std::string Kind;
  if (isRMW())
    Kind = "RMW";
  else if (isWrite())
    Kind = "W";
  else
    Kind = "R";
  std::string Out = std::to_string(Id) + ": " + Kind + modeName(Ord) + " b" +
                    std::to_string(Block) + "[" + std::to_string(rangeBegin()) +
                    ".." + std::to_string(rangeEnd() - 1) + "]";
  if (isWrite())
    Out += '=' + std::to_string(valueOfBytes(WriteBytes));
  if (isRead())
    Out += " reads " + std::to_string(valueOfBytes(ReadBytes));
  return Out;
}

bool jsmm::sameWriteReadRange(const Event &W, const Event &R) {
  return W.Block == R.Block && W.isWrite() && R.isRead() &&
         W.writeBegin() == R.readBegin() && W.writeEnd() == R.readEnd();
}

bool jsmm::sameWriteWriteRange(const Event &A, const Event &B) {
  return A.Block == B.Block && A.isWrite() && B.isWrite() &&
         A.writeBegin() == B.writeBegin() && A.writeEnd() == B.writeEnd();
}

bool jsmm::overlap(const Event &A, const Event &B) {
  // Footprint-less events (Ewake/Enotify, §7) never overlap anything.
  if (A.rangeBegin() == A.rangeEnd() || B.rangeBegin() == B.rangeEnd())
    return false;
  return A.Block == B.Block && A.rangeBegin() < B.rangeEnd() &&
         B.rangeBegin() < A.rangeEnd();
}

Event jsmm::makeWrite(EventId Id, int Thread, Mode Ord, unsigned Index,
                      unsigned Width, uint64_t Value, bool TearFree,
                      unsigned Block) {
  Event E;
  E.Id = Id;
  E.Thread = Thread;
  E.Ord = Ord;
  E.Block = Block;
  E.Index = Index;
  E.WriteBytes = bytesOfValue(Value, Width);
  E.TearFree = TearFree;
  return E;
}

Event jsmm::makeRead(EventId Id, int Thread, Mode Ord, unsigned Index,
                     unsigned Width, uint64_t Value, bool TearFree,
                     unsigned Block) {
  Event E;
  E.Id = Id;
  E.Thread = Thread;
  E.Ord = Ord;
  E.Block = Block;
  E.Index = Index;
  E.ReadBytes = bytesOfValue(Value, Width);
  E.TearFree = TearFree;
  return E;
}

Event jsmm::makeRMW(EventId Id, int Thread, unsigned Index, unsigned Width,
                    uint64_t ReadValue, uint64_t WrittenValue,
                    unsigned Block) {
  // JavaScript's only atomic RMWs are SeqCst and tear-free.
  Event E;
  E.Id = Id;
  E.Thread = Thread;
  E.Ord = Mode::SeqCst;
  E.Block = Block;
  E.Index = Index;
  E.ReadBytes = bytesOfValue(ReadValue, Width);
  E.WriteBytes = bytesOfValue(WrittenValue, Width);
  E.TearFree = true;
  return E;
}

Event jsmm::makeInit(EventId Id, unsigned Size, unsigned Block) {
  Event E;
  E.Id = Id;
  E.Thread = -1;
  E.Ord = Mode::Init;
  E.Block = Block;
  E.Index = 0;
  E.WriteBytes.assign(Size, 0);
  E.TearFree = true;
  return E;
}

Event jsmm::makeInit(EventId Id, std::vector<uint8_t> Bytes, unsigned Block) {
  Event E = makeInit(Id, static_cast<unsigned>(Bytes.size()), Block);
  E.WriteBytes = std::move(Bytes);
  return E;
}
