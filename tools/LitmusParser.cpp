//===- tools/LitmusParser.cpp ---------------------------------------------===//

#include "tools/LitmusParser.h"

#include "litmus/PathEnum.h"
#include "support/Relation.h"
#include "support/Str.h"

#include <cctype>
#include <climits>
#include <map>
#include <set>
#include <sstream>

using namespace jsmm;

namespace {

/// Largest SharedArrayBuffer a litmus file may declare. Init events
/// materialise the whole buffer as a byte vector, so an unchecked size is
/// a memory-exhaustion vector for a service that accepts user corpora.
constexpr unsigned MaxBufferBytes = 1u << 20;

/// Parsed statement tree (mirrors litmus::Instr, but built incrementally).
struct ParsedInstr {
  enum class Kind { Load, Store, Exchange, If } K = Kind::Load;
  Acc A;
  unsigned DeclaredReg = 0; ///< Load/Exchange: the rN the file named
  uint64_t Value = 0;       ///< Store/Exchange value; If comparison value
  unsigned CondReg = 0;
  bool CondEqual = true;
  unsigned Line = 0;        ///< source line, for replay-phase diagnostics
  std::vector<ParsedInstr> Body;
};

struct ParserState {
  std::vector<std::vector<ParsedInstr>> Threads;
  std::vector<unsigned> ThreadLines; ///< line of each `thread` directive
  std::vector<unsigned> BufferSizes;
  /// Per-buffer initial byte values from `init` directives (offset ->
  /// byte); absent entries are zero. Parallel to BufferSizes.
  std::vector<std::map<unsigned, uint8_t>> InitBytes;
  std::string Name = "anonymous";
  std::vector<LitmusExpectation> Expectations;
};

std::vector<std::string> tokenize(const std::string &Line) {
  std::vector<std::string> Tokens;
  std::istringstream In(Line);
  std::string Tok;
  while (In >> Tok) {
    if (Tok[0] == '#')
      break; // comment to end of line
    Tokens.push_back(Tok);
  }
  return Tokens;
}

/// Parses "u8" / "u16" / "u32" / "u64" / "dvN" into an access template.
/// DataView widths are capped at 8 bytes (the value-encoding limit).
bool parseWidth(const std::string &Tok, Acc &A) {
  if (Tok == "u8")
    A = Acc::u8(0);
  else if (Tok == "u16")
    A = Acc::u16(0);
  else if (Tok == "u32")
    A = Acc::u32(0);
  else if (Tok == "u64")
    A = Acc::u64(0);
  else if (Tok.size() > 2 && Tok.compare(0, 2, "dv") == 0) {
    std::optional<unsigned> Width = parseUnsigned(Tok.substr(2));
    if (!Width || *Width == 0 || *Width > 8)
      return false;
    A = Acc::dataView(0, *Width);
  } else
    return false;
  return true;
}

/// Parses "rN" into N.
bool parseReg(const std::string &Tok, unsigned &Reg) {
  if (Tok.size() < 2 || Tok[0] != 'r')
    return false;
  std::optional<unsigned> N = parseUnsigned(Tok.substr(1));
  if (!N)
    return false;
  Reg = *N;
  return true;
}

/// Parses "T:rR=V" outcome components.
bool parseOutcomeToken(const std::string &Tok, Outcome &O) {
  size_t Colon = Tok.find(':');
  size_t Eq = Tok.find('=');
  if (Colon == std::string::npos || Eq == std::string::npos || Eq < Colon)
    return false;
  std::string RegTok = Tok.substr(Colon + 1, Eq - Colon - 1);
  unsigned Reg = 0;
  if (!parseReg(RegTok, Reg))
    return false;
  std::optional<unsigned> Thread = parseUnsigned(Tok.substr(0, Colon));
  std::optional<uint64_t> Value = parseUnsigned64(Tok.substr(Eq + 1));
  // Thread ids are ints downstream; values beyond INT_MAX would wrap to
  // negative ids and report bogus expectation failures.
  if (!Thread || *Thread > static_cast<unsigned>(INT_MAX) || !Value)
    return false;
  O.add(static_cast<int>(*Thread), Reg, *Value);
  return true;
}

/// Recursively replays a parsed statement list through the builder,
/// checking that every access stays inside the \p BufferSize-byte buffer
/// and that the file's register names match the builder's automatic
/// assignment order.
bool emitBody(ThreadBuilder &B, const std::vector<ParsedInstr> &Body,
              unsigned BufferSize, std::string *Error) {
  static const char *const KindName[] = {"load", "store", "exchange"};
  for (const ParsedInstr &I : Body) {
    if (I.K != ParsedInstr::Kind::If &&
        (I.A.Offset >= BufferSize || I.A.Width > BufferSize - I.A.Offset)) {
      if (Error)
        *Error = "line " + std::to_string(I.Line) + ": " +
                 KindName[static_cast<int>(I.K)] + " range [" +
                 std::to_string(I.A.Offset) + ".." +
                 std::to_string(uint64_t{I.A.Offset} + I.A.Width - 1) +
                 "] is outside the " + std::to_string(BufferSize) +
                 "-byte buffer";
      return false;
    }
    switch (I.K) {
    case ParsedInstr::Kind::Load: {
      Reg R = B.load(I.A);
      if (R.Index != I.DeclaredReg) {
        if (Error)
          *Error = "line " + std::to_string(I.Line) + ": register r" +
                   std::to_string(I.DeclaredReg) +
                   " out of order (expected r" + std::to_string(R.Index) +
                   "); registers are assigned in load order";
        return false;
      }
      break;
    }
    case ParsedInstr::Kind::Store:
      B.store(I.A, I.Value);
      break;
    case ParsedInstr::Kind::Exchange: {
      Reg R = B.exchange(I.A, I.Value);
      if (R.Index != I.DeclaredReg) {
        if (Error)
          *Error = "line " + std::to_string(I.Line) + ": register r" +
                   std::to_string(I.DeclaredReg) + " out of order";
        return false;
      }
      break;
    }
    case ParsedInstr::Kind::If: {
      bool Ok = true;
      Reg Cond{static_cast<int>(B.thread()), I.CondReg};
      auto Nest = [&](ThreadBuilder &Inner) {
        Ok = emitBody(Inner, I.Body, BufferSize, Error);
      };
      if (I.CondEqual)
        B.ifEq(Cond, I.Value, Nest);
      else
        B.ifNe(Cond, I.Value, Nest);
      if (!Ok)
        return false;
      break;
    }
    }
  }
  return true;
}

/// Collects statement source lines in pre-order (an If's line, then its
/// body's) — the same flattening order analysis::classify() reports
/// PreIdx in, so LitmusFile::InstrLines aligns index-for-index.
void collectLines(const std::vector<ParsedInstr> &Body,
                  std::vector<unsigned> &Lines) {
  for (const ParsedInstr &I : Body) {
    Lines.push_back(I.Line);
    if (I.K == ParsedInstr::Kind::If)
      collectLines(I.Body, Lines);
  }
}

/// The width token that reparses to this access: "uN" for tear-free
/// 8/16/32-bit accesses and 64-bit ones (whose tearing the parser derives
/// from the width), "dvN" for DataView accesses.
std::string widthToken(const Acc &A) {
  if (A.Width == 8)
    return "u64";
  if (A.TearFree && (A.Width == 1 || A.Width == 2 || A.Width == 4))
    return "u" + std::to_string(8 * A.Width);
  return "dv" + std::to_string(A.Width);
}

void emitBodyText(const std::vector<Instr> &Body, unsigned Depth,
                  std::string &Out) {
  std::string Ind(2 * Depth, ' ');
  for (const Instr &I : Body) {
    bool Sc = I.Access.Ord == Mode::SeqCst;
    switch (I.K) {
    case Instr::Kind::Load:
      Out += Ind + "r" + std::to_string(I.Dst) + " = load" +
             (Sc ? ".sc" : "") + " " + widthToken(I.Access) + " " +
             std::to_string(I.Access.Offset) + "\n";
      break;
    case Instr::Kind::Store:
      Out += Ind + "store" + (Sc ? ".sc" : "") + " " + widthToken(I.Access) +
             " " + std::to_string(I.Access.Offset) + " = " +
             std::to_string(I.Value) + "\n";
      break;
    case Instr::Kind::Rmw:
      Out += Ind + "r" + std::to_string(I.Dst) + " = exchange " +
             widthToken(I.Access) + " " + std::to_string(I.Access.Offset) +
             " = " + std::to_string(I.Value) + "\n";
      break;
    case Instr::Kind::IfEq:
    case Instr::Kind::IfNe:
      Out += Ind + "if r" + std::to_string(I.CondReg) +
             (I.K == Instr::Kind::IfEq ? " == " : " != ") +
             std::to_string(I.Value) + "\n";
      emitBodyText(I.Body, Depth + 1, Out);
      Out += Ind + "end\n";
      break;
    }
  }
}

} // namespace

std::string jsmm::emitLitmus(const LitmusFile &File) {
  std::string Out = "name " + File.P.Name + "\n";
  for (unsigned B = 0; B < File.P.bufferSizes().size(); ++B) {
    Out += "buffer " + std::to_string(File.P.bufferSizes()[B]) + "\n";
    // Canonical per-byte emission: every nonzero initial byte as one
    // `init u8` directive, so any well-formed mix of widths in the source
    // round-trips to the same Program (and the same service cache key).
    const std::vector<uint8_t> &Init = File.P.initBytes(B);
    for (unsigned Off = 0; Off < Init.size(); ++Off)
      if (Init[Off])
        Out += "init u8 " + std::to_string(Off) + " = " +
               std::to_string(Init[Off]) + "\n";
  }
  for (unsigned T = 0; T < File.P.numThreads(); ++T) {
    Out += "thread\n";
    emitBodyText(File.P.threadBody(T), 1, Out);
  }
  for (const LitmusExpectation &E : File.Expectations) {
    Out += E.Allowed ? "allow" : "forbid";
    for (const auto &[T, R, V] : E.O.Regs)
      Out += ' ' + std::to_string(T) + ":r" + std::to_string(R) + "=" +
             std::to_string(V);
    Out += "\n";
  }
  return Out;
}

std::optional<LitmusFile> jsmm::parseLitmus(const std::string &Source,
                                            std::string *Error) {
  LitmusParseDiag Diag;
  std::optional<LitmusFile> Out = parseLitmus(Source, Diag);
  if (!Out && Error)
    *Error = Diag.Message;
  return Out;
}

std::optional<LitmusFile> jsmm::parseLitmus(const std::string &Source,
                                            LitmusParseDiag &Diag) {
  ParserState S;
  std::string *Error = &Diag.Message;
  // Stack of open statement lists: the innermost is where statements go.
  std::vector<std::vector<ParsedInstr> *> Open;

  auto Fail = [&](unsigned LineNo, const std::string &Why) {
    if (Error)
      *Error = "line " + std::to_string(LineNo) + ": " + Why;
    return std::nullopt;
  };
  // A value written through an access must fit its width; the engines
  // would otherwise disagree on the truncation (bytes versus whole cells).
  auto Fits = [](uint64_t Value, const Acc &A) {
    return A.Width >= 8 || (Value >> (8 * A.Width)) == 0;
  };

  std::istringstream In(Source);
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    std::vector<std::string> T = tokenize(Line);
    if (T.empty())
      continue;

    if (T[0] == "name") {
      S.Name = T.size() > 1 ? T[1] : "anonymous";
      continue;
    }
    if (T[0] == "buffer") {
      if (T.size() != 2)
        return Fail(LineNo, "expected 'buffer <bytes>'");
      std::optional<unsigned> Bytes = parseUnsigned(T[1]);
      if (!Bytes || *Bytes == 0)
        return Fail(LineNo, "bad buffer size '" + T[1] + "'");
      if (*Bytes > MaxBufferBytes)
        return Fail(LineNo, "buffer too large (" + T[1] + " bytes > " +
                                std::to_string(MaxBufferBytes) + ")");
      S.BufferSizes.push_back(*Bytes);
      S.InitBytes.emplace_back();
      continue;
    }
    if (T[0] == "init") {
      // init <width> <offset> = <value> — initial bytes of the most
      // recently declared buffer. The directive is additive and each byte
      // may be set once: overlapping ranges used to parse into an
      // ill-formed program (last-writer-wins, silently), now they are a
      // line-numbered reject.
      if (T.size() != 5 || T[3] != "=")
        return Fail(LineNo, "expected 'init <width> <offset> = <value>'");
      if (S.BufferSizes.empty())
        return Fail(LineNo, "'init' before any 'buffer' directive");
      Acc A;
      if (!parseWidth(T[1], A))
        return Fail(LineNo, "bad width '" + T[1] + "'");
      std::optional<unsigned> Offset = parseUnsigned(T[2]);
      if (!Offset)
        return Fail(LineNo, "bad offset '" + T[2] + "'");
      std::optional<uint64_t> Value = parseUnsigned64(T[4]);
      if (!Value)
        return Fail(LineNo, "bad value '" + T[4] + "'");
      unsigned Buf = static_cast<unsigned>(S.BufferSizes.size() - 1);
      unsigned Size = S.BufferSizes[Buf];
      if (*Offset >= Size || A.Width > Size - *Offset)
        return Fail(LineNo, "init range [" + std::to_string(*Offset) + ".." +
                                std::to_string(*Offset + A.Width - 1) +
                                "] is outside the " + std::to_string(Size) +
                                "-byte buffer");
      if (!Fits(*Value, A))
        return Fail(LineNo, "value " + T[4] + " does not fit " + T[1]);
      std::vector<uint8_t> Bytes = bytesOfValue(*Value, A.Width);
      std::map<unsigned, uint8_t> &Into = S.InitBytes[Buf];
      for (unsigned K = 0; K < A.Width; ++K)
        if (Into.count(*Offset + K))
          return Fail(LineNo, "init range overlaps an earlier init at byte " +
                                  std::to_string(*Offset + K));
      for (unsigned K = 0; K < A.Width; ++K)
        Into.emplace(*Offset + K, Bytes[K]);
      continue;
    }
    if (T[0] == "thread") {
      // Optional explicit id: must name the next thread in declaration
      // order. Duplicate ids used to be silently accepted (the token was
      // ignored), building a program whose outcomes named the wrong
      // threads.
      if (T.size() > 2)
        return Fail(LineNo, "expected 'thread [id]'");
      if (T.size() == 2) {
        std::optional<unsigned> Id = parseUnsigned(T[1]);
        if (!Id)
          return Fail(LineNo, "bad thread id '" + T[1] + "'");
        if (*Id < S.Threads.size())
          return Fail(LineNo, "duplicate thread id '" + T[1] + "'");
        if (*Id != S.Threads.size())
          return Fail(LineNo, "thread id " + T[1] +
                                  " out of order (expected " +
                                  std::to_string(S.Threads.size()) + ")");
      }
      S.Threads.emplace_back();
      S.ThreadLines.push_back(LineNo);
      Open.clear();
      Open.push_back(&S.Threads.back());
      continue;
    }
    if (T[0] == "allow" || T[0] == "forbid") {
      LitmusExpectation E;
      E.Allowed = T[0] == "allow";
      for (size_t I = 1; I < T.size(); ++I)
        if (!parseOutcomeToken(T[I], E.O))
          return Fail(LineNo, "bad outcome token '" + T[I] + "'");
      S.Expectations.push_back(E);
      continue;
    }

    // Everything below is a thread statement.
    if (Open.empty())
      return Fail(LineNo, "statement outside a thread");
    std::vector<ParsedInstr> &Into = *Open.back();

    if (T[0] == "end") {
      if (Open.size() < 2)
        return Fail(LineNo, "'end' without an open 'if'");
      Open.pop_back();
      continue;
    }
    if (T[0] == "if") {
      // if rN == V   /   if rN != V
      if (T.size() != 4 || (T[2] != "==" && T[2] != "!="))
        return Fail(LineNo, "expected 'if rN ==|!= value'");
      ParsedInstr I;
      I.K = ParsedInstr::Kind::If;
      I.Line = LineNo;
      if (!parseReg(T[1], I.CondReg))
        return Fail(LineNo, "bad register '" + T[1] + "'");
      I.CondEqual = T[2] == "==";
      std::optional<uint64_t> Value = parseUnsigned64(T[3]);
      if (!Value)
        return Fail(LineNo, "bad value '" + T[3] + "'");
      I.Value = *Value;
      Into.push_back(std::move(I));
      Open.push_back(&Into.back().Body);
      continue;
    }
    if (T[0].compare(0, 5, "store") == 0) {
      // store[.sc] <width> <offset> = <value>
      if (T.size() != 5 || T[3] != "=")
        return Fail(LineNo, "expected 'store[.sc] <width> <offset> = <v>'");
      ParsedInstr I;
      I.K = ParsedInstr::Kind::Store;
      I.Line = LineNo;
      if (!parseWidth(T[1], I.A))
        return Fail(LineNo, "bad width '" + T[1] + "'");
      std::optional<unsigned> Offset = parseUnsigned(T[2]);
      if (!Offset)
        return Fail(LineNo, "bad offset '" + T[2] + "'");
      I.A.Offset = *Offset;
      if (T[0] == "store.sc")
        I.A = I.A.sc();
      else if (T[0] != "store")
        return Fail(LineNo, "unknown statement '" + T[0] + "'");
      std::optional<uint64_t> Value = parseUnsigned64(T[4]);
      if (!Value)
        return Fail(LineNo, "bad value '" + T[4] + "'");
      if (!Fits(*Value, I.A))
        return Fail(LineNo, "value " + T[4] + " does not fit " + T[1]);
      I.Value = *Value;
      Into.push_back(I);
      continue;
    }
    // rN = load[.sc] <width> <offset>
    // rN = exchange <width> <offset> = <value>
    unsigned Dst = 0;
    if (parseReg(T[0], Dst) && T.size() >= 2 && T[1] == "=") {
      if (T.size() >= 5 && T[2] == "exchange") {
        if (T.size() != 7 || T[5] != "=")
          return Fail(LineNo, "expected 'rN = exchange <w> <off> = <v>'");
        ParsedInstr I;
        I.K = ParsedInstr::Kind::Exchange;
        I.Line = LineNo;
        if (!parseWidth(T[3], I.A))
          return Fail(LineNo, "bad width '" + T[3] + "'");
        std::optional<unsigned> Offset = parseUnsigned(T[4]);
        if (!Offset)
          return Fail(LineNo, "bad offset '" + T[4] + "'");
        I.A.Offset = *Offset;
        std::optional<uint64_t> Value = parseUnsigned64(T[6]);
        if (!Value)
          return Fail(LineNo, "bad value '" + T[6] + "'");
        if (!Fits(*Value, I.A))
          return Fail(LineNo, "value " + T[6] + " does not fit " + T[3]);
        I.Value = *Value;
        I.DeclaredReg = Dst;
        Into.push_back(I);
        continue;
      }
      if (T.size() == 5 && (T[2] == "load" || T[2] == "load.sc")) {
        ParsedInstr I;
        I.K = ParsedInstr::Kind::Load;
        I.Line = LineNo;
        if (!parseWidth(T[3], I.A))
          return Fail(LineNo, "bad width '" + T[3] + "'");
        std::optional<unsigned> Offset = parseUnsigned(T[4]);
        if (!Offset)
          return Fail(LineNo, "bad offset '" + T[4] + "'");
        I.A.Offset = *Offset;
        if (T[2] == "load.sc")
          I.A = I.A.sc();
        I.DeclaredReg = Dst;
        Into.push_back(I);
        continue;
      }
      return Fail(LineNo, "expected 'rN = load[.sc] <w> <off>' or "
                          "'rN = exchange <w> <off> = <v>'");
    }
    return Fail(LineNo, "unknown statement '" + T[0] + "'");
  }

  if (S.Threads.empty())
    return Fail(LineNo, "no threads declared");
  if (S.BufferSizes.empty()) {
    S.BufferSizes.push_back(16);
    S.InitBytes.emplace_back();
  }

  LitmusFile Out;
  Out.P = Program(S.BufferSizes[0]);
  for (size_t B = 1; B < S.BufferSizes.size(); ++B)
    Out.P.addBuffer(S.BufferSizes[B]);
  Out.P.Name = S.Name;
  for (size_t B = 0; B < S.InitBytes.size(); ++B)
    for (const auto &[Offset, Byte] : S.InitBytes[B])
      Out.P.setInitByte(static_cast<unsigned>(B), Offset, Byte);
  // Accesses address buffer 0. Their ranges are checked here, after the
  // whole file, because a `buffer` directive may follow the threads (and
  // an undeclared buffer defaults to 16 bytes).
  for (const std::vector<ParsedInstr> &Body : S.Threads) {
    ThreadBuilder TB = Out.P.thread();
    if (!emitBody(TB, Body, S.BufferSizes[0], Error))
      return std::nullopt;
    Out.InstrLines.emplace_back();
    collectLines(Body, Out.InstrLines.back());
  }
  Out.ThreadLines = S.ThreadLines;
  // The parser is the user-input boundary of the event-universe cap: a
  // program that cannot fit any candidate execution into a relation
  // (Relation::MaxSize elements) is rejected here with a structured,
  // *typed* error, so release builds never reach the (throwing) checked
  // relation construction.
  unsigned Bound = programEventUpperBound(Out.P);
  if (Bound > Relation::MaxSize) {
    Diag.TooLarge = true;
    return Fail(LineNo, "program too large (" + std::to_string(Bound) +
                            " events > " +
                            std::to_string(Relation::MaxSize) + ")");
  }
  Out.Expectations = S.Expectations;
  return Out;
}
