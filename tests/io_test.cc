// Matrix file I/O and the write()/read() builtins with lineage sidecar
// files (Sec. 3.1: "for every write to a file write(X,'f.bin'), we also
// write the lineage DAG to a text file 'f.bin.lineage'").
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "lang/session.h"
#include "lineage/serialize.h"
#include "matrix/datagen.h"
#include "matrix/matrix_io.h"

namespace lima {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("lima_io_test_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

TEST(MatrixIoTest, BinaryRoundTrip) {
  Matrix m = *Rand(17, 9, -5, 5, 1.0, RandPdf::kUniform, 3);
  std::string path = TempPath("bin.bin");
  ASSERT_TRUE(WriteMatrixFile(path, m).ok());
  Result<Matrix> back = ReadMatrixFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->EqualsApprox(m, 0.0));  // bit-exact
  std::filesystem::remove(path);
}

TEST(MatrixIoTest, CsvRoundTrip) {
  Matrix m(2, 3, {1.5, -2, 3e10, 0.25, 1e-7, 42});
  std::string path = TempPath("m.csv");
  ASSERT_TRUE(WriteMatrixCsv(path, m).ok());
  Result<Matrix> back = ReadMatrixCsv(path);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->EqualsApprox(m, 0.0));
  std::filesystem::remove(path);
}

TEST(MatrixIoTest, ErrorsOnBadFiles) {
  EXPECT_FALSE(ReadMatrixFile("/nonexistent/x.bin").ok());
  EXPECT_FALSE(ReadMatrixCsv("/nonexistent/x.csv").ok());
  std::string path = TempPath("ragged.csv");
  std::ofstream(path) << "1,2\n3\n";
  EXPECT_FALSE(ReadMatrixCsv(path).ok());
  std::filesystem::remove(path);

  // Header-only files whose rows * cols overflows int64: both binary
  // readers must reject them before allocating anything.
  const int64_t hostile[][2] = {{int64_t{1} << 32, int64_t{1} << 32},
                                {3, int64_t{1} << 62}};
  for (const int64_t(&header)[2] : hostile) {
    SCOPED_TRACE(std::to_string(header[0]) + "x" + std::to_string(header[1]));
    path = TempPath("hostile.bin");
    std::ofstream(path, std::ios::binary)
        .write(reinterpret_cast<const char*>(header), sizeof(header));
    Result<Matrix> read = ReadMatrixFile(path);
    ASSERT_FALSE(read.ok());
    EXPECT_NE(read.status().message().find("corrupt matrix header"),
              std::string::npos);
    EXPECT_FALSE(PeekMatrixDims(path).ok());
    std::filesystem::remove(path);
  }
}

TEST(IoBuiltinTest, WriteReadRoundTripInScript) {
  std::string path = TempPath("script.bin");
  LimaSession session(LimaConfig::TracingOnly());
  Status status = session.Run(R"(
    X = rand(rows=6, cols=4, seed=8);
    write(X, ")" + path + R"(");
    Y = read(")" + path + R"(");
    d = sum(abs(X - Y));
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_DOUBLE_EQ(*session.GetDouble("d"), 0.0);
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".lineage");
}

TEST(IoBuiltinTest, WriteEmitsLineageSidecar) {
  std::string path = TempPath("sidecar.bin");
  LimaSession session(LimaConfig::TracingOnly());
  ASSERT_TRUE(session.Run(R"(
    X = rand(rows=5, cols=5, seed=9);
    Y = t(X) %*% X + 1;
    write(Y, ")" + path + R"(");
  )").ok());
  std::ifstream log(path + ".lineage");
  ASSERT_TRUE(log.good());
  std::ostringstream buffer;
  buffer << log.rdbuf();
  Result<LineageItemPtr> parsed = DeserializeLineage(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE((*parsed)->Equals(*session.GetLineageItem("Y")));
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".lineage");
}

TEST(IoBuiltinTest, NoSidecarWithoutTracing) {
  std::string path = TempPath("notrace.bin");
  LimaSession session(LimaConfig::Base());
  ASSERT_TRUE(session.Run(R"(
    X = rand(rows=3, cols=3, seed=10);
    write(X, ")" + path + R"(");
  )").ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".lineage"));
  std::filesystem::remove(path);
}

TEST(IoBuiltinTest, RepeatedReadsShareLineageAndReuse) {
  std::string path = TempPath("reuse.bin");
  ASSERT_TRUE(
      WriteMatrixFile(path, *Rand(40, 10, -1, 1, 1.0, RandPdf::kUniform, 11))
          .ok());
  LimaSession session(LimaConfig::Lima());
  Status status = session.Run(R"(
    A = read(")" + path + R"(");
    B = read(")" + path + R"(");
    s1 = sum(t(A) %*% A);
    s2 = sum(t(B) %*% B);   # same lineage -> full reuse of the tsmm
    d = s1 - s2;
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_DOUBLE_EQ(*session.GetDouble("d"), 0.0);
  EXPECT_GE(session.stats()->cache_hits.load(), 1);
  std::filesystem::remove(path);
}

TEST(IoBuiltinTest, CsvExtensionDispatch) {
  std::string path = TempPath("disp.csv");
  LimaSession session(LimaConfig::Base());
  Status status = session.Run(R"(
    X = matrix(2.5, 2, 2);
    write(X, ")" + path + R"(");
    Y = read(")" + path + R"(");
    s = sum(Y);
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_DOUBLE_EQ(*session.GetDouble("s"), 10.0);
  // Verify it is actually text CSV.
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "2.5,2.5");
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace lima
