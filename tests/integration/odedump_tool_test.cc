// End-to-end tests of the odedump binary: argument validation (unknown
// commands and bad paths must exit 2 with usage, and must never create a
// database at a typo'd path) and the `verify` subcommand against databases
// built through the public API.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>

#include "core/database.h"
#include "core/diagnostics.h"
#include "storage/env.h"
#include "tests/testing/json_util.h"
#include "tests/testing/util.h"

namespace ode {
namespace {

struct ToolResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved.
};

ToolResult RunOdedump(const std::string& args) {
  ToolResult result;
  const std::string command = std::string(ODEDUMP_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[512];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    result.output.append(buf, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

std::string FreshDbPath(const char* tag) {
  return ::testing::TempDir() + "odedump_" + tag + "_" +
         std::to_string(::getpid());
}

// Builds a small real database at `path` through the public API.
void BuildDatabase(const std::string& path) {
  DatabaseOptions options;
  options.storage.path = path;
  ASSERT_OK_AND_ASSIGN(auto db, Database::Open(options));
  ASSERT_OK_AND_ASSIGN(uint32_t tid, db->RegisterType("doc"));
  ASSERT_OK_AND_ASSIGN(VersionId v1, db->PnewRaw(tid, Slice("first")));
  ASSERT_OK_AND_ASSIGN(VersionId v2, db->NewVersionOf(v1.oid));
  ASSERT_OK(db->UpdateVersion(v2, Slice("second")));
}

void WriteFileOrDie(const std::string& path, const std::string& contents) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(contents.data(), 1, contents.size(), f),
            contents.size());
  ASSERT_EQ(std::fclose(f), 0);
}

TEST(OdedumpToolTest, NoArgumentsPrintsUsageAndExits2) {
  ToolResult r = RunOdedump("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage: odedump"), std::string::npos) << r.output;
}

TEST(OdedumpToolTest, UnknownCommandIsRejectedBeforeOpening) {
  const std::string path = FreshDbPath("unknown_cmd");
  ToolResult r = RunOdedump(path + " frobnicate");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown command"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("usage: odedump"), std::string::npos) << r.output;
  // Rejected before Database::Open: no directory materialized at the path.
  struct stat st;
  EXPECT_NE(::stat(path.c_str(), &st), 0)
      << "odedump created " << path << " while rejecting the command";
}

TEST(OdedumpToolTest, MissingDatabasePathExits2WithoutCreatingIt) {
  const std::string path = FreshDbPath("missing");
  ToolResult r = RunOdedump(path + " summary");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage: odedump"), std::string::npos) << r.output;
  struct stat st;
  EXPECT_NE(::stat(path.c_str(), &st), 0)
      << "odedump created a database at a nonexistent path";
}

TEST(OdedumpToolTest, StrayFlagIsRejected) {
  ToolResult r = RunOdedump("/nowhere summary --out /tmp/x");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage: odedump"), std::string::npos) << r.output;
}

TEST(OdedumpToolTest, VerifyCleanDatabase) {
  const std::string path = FreshDbPath("verify_ok");
  {
    DatabaseOptions options;
    options.storage.path = path;
    ASSERT_OK_AND_ASSIGN(auto db, Database::Open(options));
    ASSERT_OK_AND_ASSIGN(uint32_t tid, db->RegisterType("doc"));
    ASSERT_OK_AND_ASSIGN(VersionId v1, db->PnewRaw(tid, Slice("first")));
    ASSERT_OK_AND_ASSIGN(VersionId v2, db->NewVersionOf(v1.oid));
    ASSERT_OK(db->UpdateVersion(v2, Slice("second")));
    ASSERT_OK(db->PnewRaw(tid, Slice("other")).status());
  }

  ToolResult r = RunOdedump(path + " verify");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("verify OK"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("recovery:"), std::string::npos) << r.output;

  // The other subcommands accept the same database.
  EXPECT_EQ(RunOdedump(path + " summary").exit_code, 0);
  EXPECT_EQ(RunOdedump(path + " check").exit_code, 0);
}

TEST(OdedumpToolTest, StatsJsonFormatIsWellFormed) {
  const std::string path = FreshDbPath("stats_json");
  BuildDatabase(path);

  ToolResult r = RunOdedump(path + " stats --format=json");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::string error;
  EXPECT_TRUE(testing::IsWellFormedJson(r.output, &error))
      << error << "\n" << r.output;
  EXPECT_NE(r.output.find("\"counters\""), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"gauges\""), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"histograms\""), std::string::npos) << r.output;
  // The read pass touched real instruments, not an empty registry.
  EXPECT_NE(r.output.find("\"txn.commits\""), std::string::npos) << r.output;
}

TEST(OdedumpToolTest, StatsPromFormatEmitsTypedSamples) {
  const std::string path = FreshDbPath("stats_prom");
  BuildDatabase(path);

  ToolResult r = RunOdedump(path + " stats --format=prom");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("# TYPE ode_"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("# TYPE ode_txn_commits counter"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\node_txn_commits "), std::string::npos)
      << r.output;
  // Prometheus exposition ends every line (including the last) with \n.
  ASSERT_FALSE(r.output.empty());
  EXPECT_EQ(r.output.back(), '\n');
}

TEST(OdedumpToolTest, StatsUnknownFormatExits2) {
  const std::string path = FreshDbPath("stats_badfmt");
  BuildDatabase(path);

  ToolResult r = RunOdedump(path + " stats --format=xml");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown format 'xml'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("usage: odedump"), std::string::npos) << r.output;
}

TEST(OdedumpToolTest, DiagOnDatabaseWithoutDumpsExitsZero) {
  const std::string path = FreshDbPath("diag_empty");
  BuildDatabase(path);

  ToolResult r = RunOdedump(path + " diag");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("no diagnostics dumps"), std::string::npos)
      << r.output;
}

TEST(OdedumpToolTest, DiagListsAndPrintsDumpsWithoutOpeningTheDatabase) {
  // diag must work post-mortem: a bare directory with dumps but no data.odb.
  const std::string path = FreshDbPath("diag_postmortem");
  ASSERT_EQ(::mkdir(path.c_str(), 0755), 0);
  WriteFileOrDie(path + "/" + DiagnosticsFileName(1),
                 "{\"schema\":1,\"seq\":1,\"trigger\":\"manual\"}");
  WriteFileOrDie(path + "/" + DiagnosticsFileName(2),
                 "{\"schema\":1,\"seq\":2,\"trigger\":\"crash_matrix\"}");

  ToolResult r = RunOdedump(path + " diag");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("--- dumps ---"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find(DiagnosticsFileName(1)), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(DiagnosticsFileName(2)), std::string::npos)
      << r.output;
  // Without --file the newest dump is pretty-printed.
  EXPECT_NE(r.output.find("\"trigger\": \"crash_matrix\""), std::string::npos)
      << r.output;

  ToolResult chosen =
      RunOdedump(path + " diag --file " + DiagnosticsFileName(1));
  EXPECT_EQ(chosen.exit_code, 0) << chosen.output;
  EXPECT_NE(chosen.output.find("\"trigger\": \"manual\""), std::string::npos)
      << chosen.output;
}

// A slow commit can be traced to a checkpoint from the tool's output
// alone: the dump's checkpoint record shows pages written (a), WAL bytes
// retired (b) and the microseconds the apply latch was held (c).
TEST(OdedumpToolTest, DiagShowsCheckpointPagesBytesAndLatchTime) {
  const std::string path = FreshDbPath("diag_checkpoint");
  {
    DatabaseOptions options;
    options.storage.path = path;
    ASSERT_OK_AND_ASSIGN(auto db, Database::Open(options));
    ASSERT_OK_AND_ASSIGN(uint32_t tid, db->RegisterType("doc"));
    ASSERT_OK(db->PnewRaw(tid, Slice("payload")).status());
    ASSERT_OK(db->Checkpoint());
    ASSERT_OK(db->DumpDiagnostics("manual").status());
  }
  ToolResult r = RunOdedump(path + " diag");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const size_t at = r.output.find("\"type\": \"checkpoint\"");
  ASSERT_NE(at, std::string::npos) << r.output;
  const size_t end = r.output.find('}', at);
  const std::string record = r.output.substr(at, end - at);
  for (const char* key : {"\"a\": ", "\"b\": ", "\"c\": "}) {
    EXPECT_NE(record.find(key), std::string::npos) << key << "\n" << record;
  }
  // At least the superblock and the new object's pages were written.
  EXPECT_EQ(record.find("\"a\": 0,"), std::string::npos) << record;
  EXPECT_EQ(record.find("\"b\": 0,"), std::string::npos) << record;
}

TEST(OdedumpToolTest, HealthOnHealthyDatabaseExitsZero) {
  const std::string path = FreshDbPath("health_ok");
  BuildDatabase(path);

  ToolResult r = RunOdedump(path + " health");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("state:           ok"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("wal backlog:"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("reason:"), std::string::npos) << r.output;
}

TEST(OdedumpToolTest, HealthFlagsPriorPoisonDumpAsDegraded) {
  const std::string path = FreshDbPath("health_poisoned");
  BuildDatabase(path);
  // A flight-recorder dump from a poisoned previous run: the engine itself
  // reopens clean (recovery truncated the bad tail), but health must still
  // surface the incident.
  WriteFileOrDie(path + "/" + DiagnosticsFileName(1),
                 "{\"schema\":1,\"seq\":1,\"trigger\":\"poison\"}");

  ToolResult r = RunOdedump(path + " health");
  EXPECT_EQ(r.exit_code, 1) << r.output;  // HealthState::kDegraded.
  EXPECT_NE(r.output.find("state:           degraded"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("previous run poisoned (see " +
                          DiagnosticsFileName(1) + ")"),
            std::string::npos)
      << r.output;
}

TEST(OdedumpToolTest, HealthOnUnopenableDatabaseExits2) {
  const std::string path = FreshDbPath("health_unopenable");
  ASSERT_EQ(::mkdir(path.c_str(), 0755), 0);
  // data.odb exists (so the path check passes) but can't be opened as a
  // file.  A directory is the reliably-unopenable shape: mere garbage BYTES
  // would be treated as an invalid superblock and reinitialized.
  ASSERT_EQ(::mkdir((path + "/data.odb").c_str(), 0755), 0);

  ToolResult r = RunOdedump(path + " health");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("state:           unopenable"), std::string::npos)
      << r.output;
}

}  // namespace
}  // namespace ode
