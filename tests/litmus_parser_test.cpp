//===- tests/litmus_parser_test.cpp - jsmm-run litmus format --------------===//

#include "tools/LitmusParser.h"

#include "engine/ExecutionEngine.h"
#include "exec/Enumerator.h"
#include "litmus/PathEnum.h"
#include "targets/Differential.h"

#include <gtest/gtest.h>

using namespace jsmm;

namespace {

const char *MPSource = R"(
name MP
buffer 1024
thread
  store u32 0 = 3
  store.sc u32 4 = 5
thread
  r0 = load.sc u32 4
  if r0 == 5
    r1 = load u32 0
  end
forbid 1:r0=5 1:r1=0
allow  1:r0=5 1:r1=3
allow  1:r0=0
)";

} // namespace

TEST(LitmusParser, ParsesMessagePassing) {
  std::string Error;
  auto File = parseLitmus(MPSource, &Error);
  ASSERT_TRUE(File.has_value()) << Error;
  EXPECT_EQ(File->P.Name, "MP");
  EXPECT_EQ(File->P.numThreads(), 2u);
  EXPECT_EQ(File->P.bufferSizes()[0], 1024u);
  ASSERT_EQ(File->Expectations.size(), 3u);
  EXPECT_FALSE(File->Expectations[0].Allowed);
  EXPECT_TRUE(File->Expectations[1].Allowed);
}

TEST(LitmusParser, ParsedProgramEnumeratesCorrectly) {
  auto File = parseLitmus(MPSource);
  ASSERT_TRUE(File.has_value());
  EnumerationResult R = enumerateOutcomes(File->P, ModelSpec::revised());
  for (const LitmusExpectation &E : File->Expectations)
    EXPECT_EQ(R.allows(E.O), E.Allowed) << E.O.toString();
}

TEST(LitmusParser, ParsesExchangeAndComments) {
  const char *Src = R"(
name XCHG  # a comment
buffer 4
thread
  r0 = exchange u32 0 = 7   # old value into r0
)";
  std::string Error;
  auto File = parseLitmus(Src, &Error);
  ASSERT_TRUE(File.has_value()) << Error;
  const Instr &I = File->P.threadBody(0)[0];
  EXPECT_EQ(I.K, Instr::Kind::Rmw);
  EXPECT_EQ(I.Value, 7u);
}

TEST(LitmusParser, ParsesDataViewWidths) {
  const char *Src = R"(
buffer 8
thread
  store dv3 1 = 0x010203
  r0 = load u16 2
)";
  auto File = parseLitmus(Src);
  ASSERT_TRUE(File.has_value());
  const Instr &St = File->P.threadBody(0)[0];
  EXPECT_EQ(St.Access.Width, 3u);
  EXPECT_EQ(St.Access.Offset, 1u);
  EXPECT_FALSE(St.Access.TearFree);
}

TEST(LitmusParser, ParsesNestedIfAndIfNe) {
  const char *Src = R"(
buffer 8
thread
  r0 = load u32 0
  if r0 != 0
    r1 = load u32 4
    if r1 == 1
      store u32 0 = 9
    end
  end
)";
  std::string Error;
  auto File = parseLitmus(Src, &Error);
  ASSERT_TRUE(File.has_value()) << Error;
  const std::vector<Instr> &Body = File->P.threadBody(0);
  ASSERT_EQ(Body.size(), 2u);
  EXPECT_EQ(Body[1].K, Instr::Kind::IfNe);
  ASSERT_EQ(Body[1].Body.size(), 2u);
  EXPECT_EQ(Body[1].Body[1].K, Instr::Kind::IfEq);
}

TEST(LitmusParser, MultipleBuffers) {
  const char *Src = R"(
buffer 4
buffer 8
thread
  store u32 0 = 1
)";
  auto File = parseLitmus(Src);
  ASSERT_TRUE(File.has_value());
  ASSERT_EQ(File->P.bufferSizes().size(), 2u);
  EXPECT_EQ(File->P.bufferSizes()[1], 8u);
}

TEST(LitmusParser, ErrorsAreReportedWithLines) {
  std::string Error;
  EXPECT_FALSE(parseLitmus("thread\n  bogus u32 0\n", &Error).has_value());
  EXPECT_NE(Error.find("line 2"), std::string::npos);

  EXPECT_FALSE(parseLitmus("store u32 0 = 1\n", &Error).has_value());
  EXPECT_NE(Error.find("outside a thread"), std::string::npos);

  EXPECT_FALSE(parseLitmus("thread\nend\n", &Error).has_value());
  EXPECT_NE(Error.find("without an open"), std::string::npos);

  EXPECT_FALSE(parseLitmus("", &Error).has_value());
  EXPECT_NE(Error.find("no threads"), std::string::npos);
}

TEST(LitmusParser, RegisterOrderIsEnforced) {
  std::string Error;
  const char *Src = R"(
thread
  r1 = load u32 0
)";
  EXPECT_FALSE(parseLitmus(Src, &Error).has_value());
  EXPECT_NE(Error.find("out of order"), std::string::npos);
}

TEST(LitmusParser, BadOutcomeTokenRejected) {
  std::string Error;
  const char *Src = R"(
thread
  r0 = load u32 0
allow nonsense
)";
  EXPECT_FALSE(parseLitmus(Src, &Error).has_value());
  EXPECT_NE(Error.find("bad outcome token"), std::string::npos);
}

TEST(LitmusParser, HexValuesAccepted) {
  const char *Src = R"(
buffer 4
thread
  store u16 0 = 0x0101
  r0 = load u16 0
allow 0:r0=0x0101
)";
  auto File = parseLitmus(Src);
  ASSERT_TRUE(File.has_value());
  EXPECT_EQ(File->P.threadBody(0)[0].Value, 0x0101u);
  uint64_t V = 0;
  ASSERT_TRUE(File->Expectations[0].O.lookup(0, 0, V));
  EXPECT_EQ(V, 0x0101u);
}

//===----------------------------------------------------------------------===//
// Round-tripping (parse -> Program -> re-emit) and diagnostics
//===----------------------------------------------------------------------===//

TEST(LitmusParser, EmitIsAFixedPointOnMP) {
  auto First = parseLitmus(MPSource);
  ASSERT_TRUE(First.has_value());
  std::string Emitted = emitLitmus(*First);
  std::string Error;
  auto Second = parseLitmus(Emitted, &Error);
  ASSERT_TRUE(Second.has_value()) << Error << "\nemitted:\n" << Emitted;
  EXPECT_EQ(Emitted, emitLitmus(*Second)) << "re-emitting must be stable";
  EXPECT_EQ(Second->P.Name, First->P.Name);
  EXPECT_EQ(Second->P.numThreads(), First->P.numThreads());
  ASSERT_EQ(Second->Expectations.size(), First->Expectations.size());
  for (size_t I = 0; I < First->Expectations.size(); ++I) {
    EXPECT_EQ(Second->Expectations[I].Allowed, First->Expectations[I].Allowed);
    EXPECT_EQ(Second->Expectations[I].O, First->Expectations[I].O);
  }
}

TEST(LitmusParser, RoundTripPreservesSemanticsOnMP) {
  auto First = parseLitmus(MPSource);
  ASSERT_TRUE(First.has_value());
  auto Second = parseLitmus(emitLitmus(*First));
  ASSERT_TRUE(Second.has_value());
  EXPECT_EQ(enumerateOutcomes(First->P, ModelSpec::revised()).outcomeStrings(),
            enumerateOutcomes(Second->P, ModelSpec::revised())
                .outcomeStrings());
}

TEST(LitmusParser, RoundTripsTheDifferentialCorpus) {
  unsigned Seen = 0;
  for (const DiffCase &C : differentialCorpus()) {
    if (C.Litmus.empty())
      continue;
    ++Seen;
    std::string Error;
    auto First = parseLitmus(C.Litmus, &Error);
    ASSERT_TRUE(First.has_value()) << C.Name << ": " << Error;
    std::string Emitted = emitLitmus(*First);
    auto Second = parseLitmus(Emitted, &Error);
    ASSERT_TRUE(Second.has_value())
        << C.Name << ": " << Error << "\nemitted:\n" << Emitted;
    EXPECT_EQ(Emitted, emitLitmus(*Second)) << C.Name;
    EXPECT_EQ(
        enumerateOutcomes(First->P, ModelSpec::revised()).outcomeStrings(),
        enumerateOutcomes(Second->P, ModelSpec::revised()).outcomeStrings())
        << C.Name;
    // The uni-size rendering survives the round trip too.
    auto Uni = uniFromProgram(Second->P, &Error);
    ASSERT_TRUE(Uni.has_value()) << C.Name << ": " << Error;
    EXPECT_EQ(Uni->numThreads(), C.Uni.numThreads()) << C.Name;
  }
  EXPECT_GE(Seen, 2u) << "corpus must carry parser-loaded entries";
}

TEST(LitmusParser, EmitsControlFlowAndWidths) {
  const char *Source = R"(name widths
buffer 32
buffer 16
thread
  r0 = load u8 0
  r1 = load u16 2
  r2 = exchange u32 4 = 7
  if r0 != 3
    store u64 8 = 9
    r3 = load dv3 16
  end
forbid 0:r0=3 0:r3=0
)";
  std::string Error;
  auto First = parseLitmus(Source, &Error);
  ASSERT_TRUE(First.has_value()) << Error;
  std::string Emitted = emitLitmus(*First);
  auto Second = parseLitmus(Emitted, &Error);
  ASSERT_TRUE(Second.has_value()) << Error << "\nemitted:\n" << Emitted;
  EXPECT_EQ(Emitted, emitLitmus(*Second));
  EXPECT_NE(Emitted.find("buffer 16"), std::string::npos);
  EXPECT_NE(Emitted.find("u64 8 = 9"), std::string::npos);
  EXPECT_NE(Emitted.find("dv3 16"), std::string::npos);
  EXPECT_NE(Emitted.find("if r0 != 3"), std::string::npos);
}

TEST(LitmusParser, MalformedInputsProduceLineDiagnostics) {
  const std::vector<std::pair<const char *, const char *>> Cases = {
      {"thread\n  store u99 0 = 1\n", "bad width"},
      {"store u32 0 = 1\n", "statement outside a thread"},
      {"thread\nend\n", "'end' without an open 'if'"},
      {"thread\n  if r0 = 5\n", "if rN"},
      {"thread\n  if x0 == 5\n", "bad register"},
      {"thread\n  r1 = load u32 0\n", "out of order"},
      {"thread\n  flurb\n", "unknown statement"},
      {"thread\n  store u32 0 = 1\nallow 1:bad\n", "bad outcome token"},
      {"thread\n  store u32 0\n", "expected 'store"},
      {"", "no threads declared"},
      // Accesses must stay inside the buffer, whichever statement kind and
      // wherever the `buffer` directive sits (the default is 16 bytes).
      {"buffer 8\nthread\n  r0 = load u32 99\n",
       "load range [99..102] is outside the 8-byte buffer"},
      {"buffer 8\nthread\n  store u32 6 = 1\n",
       "store range [6..9] is outside the 8-byte buffer"},
      {"thread\n  r0 = exchange u64 12 = 1\nbuffer 16\n",
       "exchange range [12..19] is outside the 16-byte buffer"},
      {"thread\n  r0 = load u8 0\n  if r0 == 1\n    r1 = load u8 16\n"
       "  end\n",
       "line 4: load range [16..16] is outside the 16-byte buffer"},
      {"thread\n  store u32 4294967295 = 1\n",
       "store range [4294967295..4294967298] is outside the 16-byte buffer"},
      // Written values must fit the access width, as `init` values do.
      {"thread\n  store u8 0 = 300\n", "line 2: value 300 does not fit u8"},
      {"thread\n  r0 = exchange u16 0 = 65536\n",
       "line 2: value 65536 does not fit u16"},
  };
  for (const auto &[Source, Expected] : Cases) {
    std::string Error;
    auto File = parseLitmus(Source, &Error);
    EXPECT_FALSE(File.has_value()) << Source;
    EXPECT_NE(Error.find(Expected), std::string::npos)
        << "source <<" << Source << ">> produced: " << Error;
    EXPECT_EQ(Error.rfind("line ", 0), 0u)
        << "diagnostic must carry a line number: " << Error;
  }
}

TEST(LitmusParser, DiagnosticLineNumbersPointAtTheOffendingLine) {
  std::string Error;
  EXPECT_FALSE(
      parseLitmus("name t\nbuffer 8\nthread\n  store u32 0 = 1\n  bogus\n",
                  &Error)
          .has_value());
  EXPECT_EQ(Error.rfind("line 5:", 0), 0u) << Error;
}

//===----------------------------------------------------------------------===//
// Input hardening: CRLF, trailing whitespace, numeric overflow, capacity
//===----------------------------------------------------------------------===//

TEST(LitmusParser, CrlfLineEndingsParseIdentically) {
  std::string Crlf;
  for (const char *C = MPSource; *C; ++C) {
    if (*C == '\n')
      Crlf += "\r\n";
    else
      Crlf += *C;
  }
  std::string Error;
  auto Unix = parseLitmus(MPSource, &Error);
  ASSERT_TRUE(Unix.has_value()) << Error;
  auto Dos = parseLitmus(Crlf, &Error);
  ASSERT_TRUE(Dos.has_value()) << Error;
  EXPECT_EQ(emitLitmus(*Dos), emitLitmus(*Unix));
  EXPECT_EQ(Dos->Expectations.size(), Unix->Expectations.size());
}

TEST(LitmusParser, TrailingAndLeadingWhitespaceIsTolerated) {
  const char *Src = "name ws  \t \n"
                    "buffer 8\t\n"
                    "thread   \n"
                    "\t store u32 0 = 1 \t \n"
                    "  \t  \n"
                    "thread\n"
                    "  r0 = load u32 0\t\n"
                    "allow 0:r0=1 \t\n";
  std::string Error;
  auto File = parseLitmus(Src, &Error);
  ASSERT_TRUE(File.has_value()) << Error;
  EXPECT_EQ(File->P.Name, "ws");
  EXPECT_EQ(File->P.numThreads(), 2u);
  ASSERT_EQ(File->Expectations.size(), 1u);
}

TEST(LitmusParser, OverflowingNumbersAreErrorsNotCrashes) {
  // Every one of these used to reach std::stoul/stoull and throw (or
  // silently truncate); all must now be line-diagnosed parse errors.
  const std::vector<std::pair<const char *, const char *>> Cases = {
      {"buffer 99999999999999999999\nthread\n  store u32 0 = 1\n",
       "bad buffer size"},
      {"thread\n  store u32 99999999999999999999 = 1\n", "bad offset"},
      {"thread\n  store u32 0 = 99999999999999999999999\n", "bad value"},
      {"thread\n  r0 = load u32 99999999999999999999\n", "bad offset"},
      {"thread\n  r0 = exchange u32 0 = 99999999999999999999999\n",
       "bad value"},
      {"thread\n  r0 = load u32 0\n  if r0 == 99999999999999999999999\n",
       "bad value"},
      {"thread\n  r0 = load dv99 0\n", "bad width"},
      {"thread\n  r0 = load dv0 0\n", "bad width"},
      {"thread\n  store u32 -4 = 1\n", "bad offset"},
      {"buffer 0\nthread\n  store u32 0 = 1\n", "bad buffer size"},
      {"buffer 2000000\nthread\n  store u32 0 = 1\n", "buffer too large"},
      {"thread\n  r0 = load u32 0\n  if r99999999999999999999 == 1\n",
       "bad register"},
      {"thread\n  store u32 0 = 1\nallow 0:r0=99999999999999999999999\n",
       "bad outcome token"},
      {"thread\n  store u32 0 = 1\nallow -1:r0=5\n", "bad outcome token"},
  };
  for (const auto &[Source, Expected] : Cases) {
    std::string Error;
    auto File = parseLitmus(Source, &Error);
    EXPECT_FALSE(File.has_value()) << Source;
    EXPECT_NE(Error.find(Expected), std::string::npos)
        << "source <<" << Source << ">> produced: " << Error;
    EXPECT_EQ(Error.rfind("line ", 0), 0u)
        << "diagnostic must carry a line number: " << Error;
  }
}

TEST(LitmusParser, LeadingZeroNumbersAreDecimalNotOctal) {
  const char *Src = R"(
buffer 16
thread
  store u32 010 = 010
  r0 = load u32 010
allow 0:r0=010
)";
  auto File = parseLitmus(Src);
  ASSERT_TRUE(File.has_value());
  EXPECT_EQ(File->P.threadBody(0)[0].Access.Offset, 10u);
  EXPECT_EQ(File->P.threadBody(0)[0].Value, 10u);
  uint64_t V = 0;
  ASSERT_TRUE(File->Expectations[0].O.lookup(0, 0, V));
  EXPECT_EQ(V, 10u);
}

TEST(LitmusParser, RejectsProgramsBeyondTheDynamicEventCap) {
  // The parser's cap is Relation::MaxSize (1024). A program beyond
  // the cap is still rejected with the typed TooLarge diagnostic...
  std::string Src = "name big\nbuffer 64\nthread\n";
  for (unsigned I = 0; I < 1200; ++I)
    Src += "  store u32 " + std::to_string(4 * (I % 8)) + " = 1\n";
  LitmusParseDiag Diag;
  EXPECT_FALSE(parseLitmus(Src, Diag).has_value());
  EXPECT_TRUE(Diag.TooLarge);
  EXPECT_NE(Diag.Message.find("program too large (1201 events > 1024)"),
            std::string::npos)
      << Diag.Message;
  EXPECT_EQ(Diag.Message.rfind("line ", 0), 0u) << Diag.Message;

  // ...while an ordinary parse error leaves the flag clear.
  LitmusParseDiag BadDiag;
  EXPECT_FALSE(parseLitmus("thread\n  flurb\n", BadDiag).has_value());
  EXPECT_FALSE(BadDiag.TooLarge);

  // The former fixed-tier rejection (65..256 events) now parses: these
  // programs are served with relations of several words per row.
  std::string Formerly = "name formerly-too-big\nbuffer 64\nthread\n";
  for (unsigned I = 0; I < 70; ++I)
    Formerly += "  store u32 " + std::to_string(4 * (I % 8)) + " = 1\n";
  std::string Error;
  std::optional<LitmusFile> File = parseLitmus(Formerly, &Error);
  ASSERT_TRUE(File.has_value()) << Error;
  EXPECT_EQ(programEventUpperBound(File->P), 71u);

  // The former dynamic-tier rejection (257..1024 events) now parses too:
  // the propagation solver serves these programs.
  std::string Wide = "name wide\nbuffer 64\nthread\n";
  for (unsigned I = 0; I < 300; ++I)
    Wide += "  store u32 " + std::to_string(4 * (I % 8)) + " = 1\n";
  File = parseLitmus(Wide, &Error);
  ASSERT_TRUE(File.has_value()) << Error;
  EXPECT_EQ(programEventUpperBound(File->P), 301u);

  // Exactly at the raised cap still parses: 1 init + 1023 stores.
  std::string AtCap = "name cap\nbuffer 64\nthread\n";
  for (unsigned I = 0; I < 1023; ++I)
    AtCap += "  store u32 " + std::to_string(4 * (I % 8)) + " = 1\n";
  EXPECT_TRUE(parseLitmus(AtCap, &Error).has_value()) << Error;
}

//===----------------------------------------------------------------------===//
// Thread ids and initial values (the PR 7 rejection-gap fixes)
//===----------------------------------------------------------------------===//

TEST(LitmusParser, DuplicateAndOutOfOrderThreadIdsAreRejected) {
  // Explicit thread ids used to be silently ignored, so `thread 0` twice
  // parsed into a two-thread program whose outcomes named the wrong
  // threads. Now: an id must name the next thread in declaration order,
  // duplicates and gaps are line-numbered rejects, and the bare `thread`
  // form still works (all existing corpora use it).
  std::string Error;
  auto Ok = parseLitmus(
      "thread 0\n  store u8 0 = 1\nthread 1\n  r0 = load u8 0\n", &Error);
  ASSERT_TRUE(Ok.has_value()) << Error;
  EXPECT_EQ(Ok->P.numThreads(), 2u);

  const std::vector<std::pair<const char *, const char *>> Cases = {
      {"thread 0\n  store u8 0 = 1\nthread 0\n  r0 = load u8 0\n",
       "duplicate thread id '0'"},
      {"thread 0\n  store u8 0 = 1\nthread 2\n  r0 = load u8 0\n",
       "thread id 2 out of order (expected 1)"},
      {"thread one\n  store u8 0 = 1\n", "bad thread id 'one'"},
      {"thread 0 0\n  store u8 0 = 1\n", "expected 'thread [id]'"},
  };
  for (const auto &[Source, Expected] : Cases) {
    auto File = parseLitmus(Source, &Error);
    EXPECT_FALSE(File.has_value()) << Source;
    EXPECT_NE(Error.find(Expected), std::string::npos)
        << "source <<" << Source << ">> produced: " << Error;
    EXPECT_EQ(Error.rfind("line ", 0), 0u) << Error;
  }
}

TEST(LitmusParser, InitDirectiveSetsInitialBytes) {
  std::string Error;
  auto File = parseLitmus("buffer 8\ninit u32 0 = 258\ninit u8 7 = 9\n"
                          "thread\n  r0 = load u32 0\n",
                          &Error);
  ASSERT_TRUE(File.has_value()) << Error;
  const std::vector<uint8_t> &Init = File->P.initBytes(0);
  ASSERT_EQ(Init.size(), 8u);
  EXPECT_EQ(Init[0], 2u); // 258 little-endian
  EXPECT_EQ(Init[1], 1u);
  EXPECT_EQ(Init[2], 0u);
  EXPECT_EQ(Init[7], 9u);
  EXPECT_TRUE(File->P.hasNonZeroInit());
}

TEST(LitmusParser, InitDirectiveScopesToTheLatestBuffer) {
  std::string Error;
  auto File = parseLitmus("buffer 4\ninit u8 0 = 1\nbuffer 4\ninit u8 0 = 2\n"
                          "thread\n  r0 = load u8 0\n",
                          &Error);
  ASSERT_TRUE(File.has_value()) << Error;
  ASSERT_EQ(File->P.bufferSizes().size(), 2u);
  EXPECT_EQ(File->P.initBytes(0)[0], 1u);
  EXPECT_EQ(File->P.initBytes(1)[0], 2u);
}

TEST(LitmusParser, MalformedInitDirectivesAreRejectedWithLines) {
  // Overlapping byte ranges used to parse into an ill-formed program
  // (silent last-writer-wins); they and the other malformed shapes are
  // now line-numbered rejects.
  const std::vector<std::pair<const char *, const char *>> Cases = {
      {"buffer 8\ninit u32 0 = 1\ninit u16 2 = 1\nthread\n  r0 = load u8 0\n",
       "overlaps an earlier init at byte 2"},
      {"buffer 8\ninit u8 3 = 1\ninit u8 3 = 1\nthread\n  r0 = load u8 0\n",
       "overlaps an earlier init at byte 3"},
      {"buffer 4\ninit u32 2 = 1\nthread\n  r0 = load u8 0\n",
       "init range [2..5] is outside the 4-byte buffer"},
      {"buffer 4\ninit u8 4 = 1\nthread\n  r0 = load u8 0\n",
       "outside the 4-byte buffer"},
      {"init u8 0 = 1\nbuffer 4\nthread\n  r0 = load u8 0\n",
       "'init' before any 'buffer' directive"},
      {"buffer 4\ninit u8 0 = 256\nthread\n  r0 = load u8 0\n",
       "value 256 does not fit u8"},
      {"buffer 4\ninit u16 0 = 65536\nthread\n  r0 = load u8 0\n",
       "value 65536 does not fit u16"},
      {"buffer 4\ninit u8 0\nthread\n  r0 = load u8 0\n",
       "expected 'init <width> <offset> = <value>'"},
      {"buffer 4\ninit u99 0 = 1\nthread\n  r0 = load u8 0\n", "bad width"},
  };
  for (const auto &[Source, Expected] : Cases) {
    std::string Error;
    auto File = parseLitmus(Source, &Error);
    EXPECT_FALSE(File.has_value()) << Source;
    EXPECT_NE(Error.find(Expected), std::string::npos)
        << "source <<" << Source << ">> produced: " << Error;
    EXPECT_EQ(Error.rfind("line ", 0), 0u) << Error;
  }
}

TEST(LitmusParser, InitRoundTripsThroughEmit) {
  // emitLitmus is the service cache key: whatever width mix the source
  // used, the canonical per-byte emission must reparse to the same
  // initial bytes and be a fixed point.
  std::string Error;
  auto First = parseLitmus("name init-rt\nbuffer 8\ninit u16 2 = 513\n"
                           "init u8 6 = 255\nthread\n  r0 = load u8 2\n",
                           &Error);
  ASSERT_TRUE(First.has_value()) << Error;
  std::string Emitted = emitLitmus(*First);
  EXPECT_NE(Emitted.find("init u8 2 = 1"), std::string::npos) << Emitted;
  EXPECT_NE(Emitted.find("init u8 3 = 2"), std::string::npos) << Emitted;
  EXPECT_NE(Emitted.find("init u8 6 = 255"), std::string::npos) << Emitted;
  auto Second = parseLitmus(Emitted, &Error);
  ASSERT_TRUE(Second.has_value()) << Error << "\n" << Emitted;
  EXPECT_EQ(First->P.initBytes(0), Second->P.initBytes(0));
  EXPECT_EQ(Emitted, emitLitmus(*Second)) << "re-emitting must be stable";
}

TEST(LitmusParser, InitValuesAreObservable) {
  // End-to-end: a load with no racing write must read the init value, and
  // the zero it could read before this PR must be forbidden.
  std::string Error;
  auto File = parseLitmus("buffer 8\ninit u32 0 = 7\nthread\n"
                          "  r0 = load u32 0\nthread\n  store u32 4 = 1\n",
                          &Error);
  ASSERT_TRUE(File.has_value()) << Error;
  ExecutionEngine Engine;
  OutcomeSummary R = Engine.enumerateOutcomes(File->P, JsModel());
  ASSERT_EQ(R.Allowed.size(), 1u);
  EXPECT_EQ(R.Allowed[0].toString(), "0:r0=7");
}
