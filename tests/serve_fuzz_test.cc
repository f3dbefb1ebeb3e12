// Seeded mutation fuzz of lima_serve frames: a request's bytes are whatever
// a peer writes to the socket, so no mutation of a valid frame may crash the
// server. Valid encoded run, stats, ping and query payloads are mutated from
// fixed seeds (byte flips, truncations, extreme values written into the
// count and length fields, duplicated and spliced fields). Each mutant goes
// through DecodeMessage, and mutants of the length prefix go through
// ReadFrame over a socketpair. Every call must return a status or a
// message, and a payload that decodes must encode back to the same bytes.
// The seed list is fixed, so a failure reproduces by rerunning the test.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "serve/protocol.h"

namespace lima {
namespace serve {
namespace {

constexpr uint64_t kPayloadSeeds = 20000;
constexpr uint64_t kFrameSeeds = 1000;

void AppendU32(std::string* out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void PutU32(std::string* out, size_t at, uint32_t v) {
  for (int i = 0; i < 4 && at + i < out->size(); ++i) {
    (*out)[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

/// One encoded key/value field: u32 key length, key, u32 value length,
/// value.
std::string EncodeField(const std::string& key, const std::string& value) {
  std::string out;
  AppendU32(&out, static_cast<uint32_t>(key.size()));
  out += key;
  AppendU32(&out, static_cast<uint32_t>(value.size()));
  out += value;
  return out;
}

/// A payload as its field count and its encoded fields, so that fields can
/// be duplicated or spliced whole.
struct Fields {
  uint32_t count = 0;
  std::vector<std::string> fields;
  std::vector<size_t> key_sizes;
};

Fields Split(const Message& message) {
  Fields out;
  out.count = static_cast<uint32_t>(message.fields.size());
  for (const auto& [key, value] : message.fields) {
    out.fields.push_back(EncodeField(key, value));
    out.key_sizes.push_back(key.size());
  }
  return out;
}

/// The payload bytes, and the offset of every count and length field.
std::string Join(const Fields& fields, std::vector<size_t>* u32_offsets) {
  std::string out;
  AppendU32(&out, fields.count);
  u32_offsets->push_back(0);
  for (size_t i = 0; i < fields.fields.size(); ++i) {
    u32_offsets->push_back(out.size());
    u32_offsets->push_back(out.size() + 4 + fields.key_sizes[i]);
    out += fields.fields[i];
  }
  return out;
}

std::vector<Message> BasePayloads() {
  Message run;
  run.Set("op", "run");
  run.Set("tenant", "alice");
  run.Set("script",
          "X = rand(rows=4, cols=4, seed=1);\nprint(sum(X %*% t(X)));\n");
  run.Set("workers", "2");
  run.Set("persist", "1");
  Message stats;
  stats.Set("op", "stats");
  Message ping;
  ping.Set("op", "ping");
  Message query;
  query.Set("op", "query");
  query.Set("q", "deps:X");
  query.Set("", std::string("\0\xff", 2));
  return {run, stats, ping, query};
}

const std::vector<uint32_t>& ExtremeValues() {
  static const std::vector<uint32_t> values = {
      0,           1,           7,           8,
      255,         0x7fffffff,  0x80000000,  0xfffffffe,
      0xffffffff,  kMaxFrameBytes - 1, kMaxFrameBytes, kMaxFrameBytes + 1};
  return values;
}

/// A mutant of base payload `which`: up to two field-level mutations
/// (duplicate, splice from another payload, drop), then up to two
/// byte-level ones (flip, truncate, an extreme count or length); at least
/// one in all.
std::string Mutant(const std::vector<Message>& bases, size_t which,
                   std::mt19937_64* rng) {
  auto pick = [rng](size_t n) { return static_cast<size_t>((*rng)() % n); };
  Fields fields = Split(bases[which]);
  const int field_rounds = static_cast<int>(pick(3));
  for (int r = 0; r < field_rounds; ++r) {
    const bool recount = pick(2) == 0;
    switch (pick(3)) {
      case 0: {  // duplicate a field in place
        if (fields.fields.empty()) break;
        const size_t i = pick(fields.fields.size());
        fields.fields.insert(fields.fields.begin() + i, fields.fields[i]);
        fields.key_sizes.insert(fields.key_sizes.begin() + i,
                                fields.key_sizes[i]);
        if (recount) ++fields.count;
        break;
      }
      case 1: {  // splice in a field of another payload
        const Fields other = Split(bases[pick(bases.size())]);
        const size_t from = pick(other.fields.size());
        const size_t at = pick(fields.fields.size() + 1);
        fields.fields.insert(fields.fields.begin() + at, other.fields[from]);
        fields.key_sizes.insert(fields.key_sizes.begin() + at,
                                other.key_sizes[from]);
        if (recount) ++fields.count;
        break;
      }
      default: {  // drop a field
        if (fields.fields.empty()) break;
        const size_t i = pick(fields.fields.size());
        fields.fields.erase(fields.fields.begin() + i);
        fields.key_sizes.erase(fields.key_sizes.begin() + i);
        if (recount) --fields.count;
        break;
      }
    }
  }
  std::vector<size_t> u32_offsets;
  std::string payload = Join(fields, &u32_offsets);
  int byte_rounds = static_cast<int>(pick(3));
  if (field_rounds == 0 && byte_rounds == 0) byte_rounds = 1;
  for (int r = 0; r < byte_rounds; ++r) {
    switch (pick(4)) {
      case 0:  // flip one byte
        if (!payload.empty()) {
          payload[pick(payload.size())] ^=
              static_cast<char>(1 + pick(255));
        }
        break;
      case 1:  // truncate
        payload.resize(pick(payload.size() + 1));
        break;
      default: {  // an extreme value in a count or length field
        const std::vector<uint32_t>& values = ExtremeValues();
        uint32_t value = values[pick(values.size())];
        if (pick(4) == 0) value = static_cast<uint32_t>(payload.size());
        PutU32(&payload, u32_offsets[pick(u32_offsets.size())], value);
        break;
      }
    }
  }
  return payload;
}

TEST(ServeFuzzTest, MutatedPayloadsDecodeOrFailCleanly) {
  const std::vector<Message> bases = BasePayloads();
  int decoded = 0;
  int rejected = 0;
  for (uint64_t seed = 1; seed <= kPayloadSeeds; ++seed) {
    std::mt19937_64 rng(seed);
    const std::string payload = Mutant(bases, seed % bases.size(), &rng);
    Result<Message> message = DecodeMessage(payload);
    if (!message.ok()) {
      ++rejected;
      continue;
    }
    ++decoded;
    EXPECT_EQ(EncodeMessage(*message), payload) << "seed " << seed;
  }
  // Both outcomes must be common, or the mutations test too little.
  EXPECT_GT(decoded, static_cast<int>(kPayloadSeeds / 20));
  EXPECT_GT(rejected, static_cast<int>(kPayloadSeeds / 4));
}

/// Writes `bytes` to `fd` completely.
bool WriteAll(int fd, const std::string& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

TEST(ServeFuzzTest, MutatedLengthPrefixesReadOrFailCleanly) {
  const std::vector<Message> bases = BasePayloads();
  int read = 0;
  int failed = 0;
  for (uint64_t seed = 1; seed <= kFrameSeeds; ++seed) {
    std::mt19937_64 rng(seed);
    auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
    const std::string payload = EncodeMessage(bases[seed % bases.size()]);
    std::string frame;
    AppendU32(&frame, static_cast<uint32_t>(payload.size()));
    frame += payload;
    switch (pick(3)) {
      case 0: {  // an extreme or off-by-some length
        const std::vector<uint32_t>& values = ExtremeValues();
        uint32_t length = values[pick(values.size())];
        if (pick(2) == 0) {
          length = static_cast<uint32_t>(payload.size() + pick(9)) - 4;
        }
        PutU32(&frame, 0, length);
        break;
      }
      case 1:  // cut inside the prefix or the payload
        frame.resize(pick(frame.size()));
        break;
      default:  // flip a byte of the prefix
        frame[pick(4)] ^= static_cast<char>(1 + pick(255));
        break;
    }
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_TRUE(WriteAll(fds[0], frame));
    ::shutdown(fds[0], SHUT_WR);
    Result<std::string> got = ReadFrame(fds[1]);
    ::close(fds[0]);
    ::close(fds[1]);
    if (!got.ok()) {
      ++failed;
      continue;
    }
    ++read;
    // A frame that reads holds exactly the bytes its prefix announced.
    ASSERT_GE(frame.size(), 4u);
    uint32_t length = 0;
    for (int i = 0; i < 4; ++i) {
      length |= static_cast<uint32_t>(static_cast<unsigned char>(frame[i]))
                << (8 * i);
    }
    EXPECT_EQ(*got, frame.substr(4, length)) << "seed " << seed;
    EXPECT_LE(length, frame.size() - 4) << "seed " << seed;
  }
  EXPECT_GT(read, 0);
  EXPECT_GT(failed, static_cast<int>(kFrameSeeds / 4));
}

}  // namespace
}  // namespace serve
}  // namespace lima
