#include "sca/corpus.h"

#include <cstring>

namespace sct::sca {

namespace {

constexpr char kMagic[8] = {'S', 'C', 'T', 'C', 'O', 'R', 'P', '\n'};
/// Byte offset of the u64 trace count inside the header.
constexpr std::streamoff kCountOffset = 8 + 4 * 4;

void putU32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void putU64(std::vector<std::uint8_t>& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void putVarint(std::vector<std::uint8_t>& b, std::uint64_t v) {
  while (v >= 0x80) {
    b.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  b.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t u) {
  return static_cast<std::int64_t>(u >> 1) ^
         -static_cast<std::int64_t>(u & 1);
}

/// Little-endian field reads over an in-memory record block.
struct BlockReader {
  const std::uint8_t* p;
  std::size_t n;
  std::size_t pos = 0;

  void need(std::size_t k, const std::string& what) const {
    if (n - pos < k) {
      throw CorpusError("corpus trace record truncated reading " + what);
    }
  }
  std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(p[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos += 4;
    return v;
  }
  std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(p[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos += 8;
    return v;
  }
};

} // namespace

std::vector<std::uint8_t> encodeTrace(const TraceRecord& record,
                                      std::uint32_t samplesPerTrace) {
  if (record.samples.size() != samplesPerTrace) {
    throw CorpusError("trace has " + std::to_string(record.samples.size()) +
                      " samples, corpus header says " +
                      std::to_string(samplesPerTrace));
  }
  std::vector<std::uint8_t> payload;
  payload.reserve(2 * record.samples.size());
  std::int64_t prev = 0;
  for (const std::int64_t s : record.samples) {
    putVarint(payload, zigzag(s - prev));
    prev = s;
  }

  std::vector<std::uint8_t> blob;
  blob.reserve(44 + payload.size());
  for (const std::uint32_t k : record.meta.key) putU32(blob, k);
  for (const std::uint32_t p : record.meta.plaintext) putU32(blob, p);
  for (const std::uint32_t c : record.meta.ciphertext) putU32(blob, c);
  putU64(blob, record.meta.noiseSeed);
  putU32(blob, static_cast<std::uint32_t>(payload.size()));
  blob.insert(blob.end(), payload.begin(), payload.end());
  return blob;
}

// ---------------------------------------------------------------------------
// TraceCorpusWriter
// ---------------------------------------------------------------------------

TraceCorpusWriter::TraceCorpusWriter(const std::string& path,
                                     const CorpusHeader& header)
    : path_(path), header_(header) {
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) throw CorpusError("cannot open corpus for writing: " + path);
  std::vector<std::uint8_t> h(kMagic, kMagic + 8);
  putU32(h, kCorpusFormatVersion);
  putU32(h, header_.samplesPerTrace);
  putU32(h, header_.quantDenom);
  putU32(h, 0);  // reserved
  putU64(h, 0);  // trace count, patched on close
  out_.write(reinterpret_cast<const char*>(h.data()),
             static_cast<std::streamsize>(h.size()));
  bytes_ = h.size();
  open_ = true;
}

TraceCorpusWriter::~TraceCorpusWriter() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; an explicit close() reports errors.
  }
}

void TraceCorpusWriter::append(const TraceRecord& record) {
  appendEncoded(encodeTrace(record, header_.samplesPerTrace));
}

void TraceCorpusWriter::appendEncoded(const std::vector<std::uint8_t>& blob) {
  if (!open_) throw CorpusError("corpus writer already closed: " + path_);
  out_.write(reinterpret_cast<const char*>(blob.data()),
             static_cast<std::streamsize>(blob.size()));
  if (!out_) throw CorpusError("corpus write failed: " + path_);
  ++traces_;
  bytes_ += blob.size();
}

void TraceCorpusWriter::close() {
  if (!open_) return;
  open_ = false;
  out_.seekp(kCountOffset);
  std::vector<std::uint8_t> c;
  putU64(c, traces_);
  out_.write(reinterpret_cast<const char*>(c.data()), 8);
  out_.close();
  if (!out_ && traces_ > 0) {
    throw CorpusError("corpus close failed: " + path_);
  }
}

// ---------------------------------------------------------------------------
// TraceCorpusReader
// ---------------------------------------------------------------------------

TraceCorpusReader::TraceCorpusReader(const std::string& path) : path_(path) {
  in_.open(path, std::ios::binary);
  if (!in_) throw CorpusError("cannot open corpus: " + path);
  std::uint8_t h[8 + 4 * 4 + 8];
  in_.read(reinterpret_cast<char*>(h), sizeof h);
  if (in_.gcount() != static_cast<std::streamsize>(sizeof h)) {
    throw CorpusError("corpus header truncated: " + path);
  }
  if (std::memcmp(h, kMagic, 8) != 0) {
    throw CorpusError("bad magic — not a trace corpus: " + path);
  }
  BlockReader r{h + 8, sizeof h - 8};
  const std::uint32_t version = r.u32("format version");
  if (version != kCorpusFormatVersion) {
    throw CorpusError("unsupported corpus format version " +
                      std::to_string(version) + " (expected " +
                      std::to_string(kCorpusFormatVersion) + "): " + path);
  }
  header_.samplesPerTrace = r.u32("samplesPerTrace");
  header_.quantDenom = r.u32("quantDenom");
  r.u32("reserved");
  header_.traceCount = r.u64("traceCount");
  if (header_.quantDenom == 0) {
    throw CorpusError("corpus quantDenom is zero: " + path);
  }
}

bool TraceCorpusReader::next(TraceRecord& out) {
  if (read_ == header_.traceCount) {
    // The count is authoritative; anything after the last trace is
    // corruption (e.g. a writer that died before patching the count).
    if (in_.peek() != std::ifstream::traits_type::eof()) {
      throw CorpusError("trailing bytes after trace " +
                        std::to_string(read_) + ": " + path_);
    }
    return false;
  }

  std::uint8_t fixed[4 * 8 + 8 + 4];  // key+pt+ct (8 u32), seed, payloadLen
  in_.read(reinterpret_cast<char*>(fixed), sizeof fixed);
  if (in_.gcount() != static_cast<std::streamsize>(sizeof fixed)) {
    throw CorpusError("corpus truncated in trace " + std::to_string(read_) +
                      " metadata (header claims " +
                      std::to_string(header_.traceCount) + " traces): " +
                      path_);
  }
  BlockReader r{fixed, sizeof fixed};
  for (std::uint32_t& k : out.meta.key) k = r.u32("key");
  for (std::uint32_t& p : out.meta.plaintext) p = r.u32("plaintext");
  for (std::uint32_t& c : out.meta.ciphertext) c = r.u32("ciphertext");
  out.meta.noiseSeed = r.u64("noiseSeed");
  const std::uint32_t payloadBytes = r.u32("payloadBytes");

  std::vector<std::uint8_t> payload(payloadBytes);
  in_.read(reinterpret_cast<char*>(payload.data()),
           static_cast<std::streamsize>(payloadBytes));
  if (in_.gcount() != static_cast<std::streamsize>(payloadBytes)) {
    throw CorpusError("corpus truncated in trace " + std::to_string(read_) +
                      " samples: " + path_);
  }

  out.samples.clear();
  out.samples.reserve(header_.samplesPerTrace);
  std::size_t pos = 0;
  std::int64_t prev = 0;
  while (out.samples.size() < header_.samplesPerTrace) {
    std::uint64_t u = 0;
    int shift = 0;
    for (;;) {
      if (pos >= payload.size()) {
        throw CorpusError("corrupt sample stream in trace " +
                          std::to_string(read_) +
                          ": payload ends mid-varint: " + path_);
      }
      const std::uint8_t byte = payload[pos++];
      u |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
      if (shift >= 64) {
        throw CorpusError("corrupt sample stream in trace " +
                          std::to_string(read_) + ": varint overlong: " +
                          path_);
      }
    }
    prev += unzigzag(u);
    out.samples.push_back(prev);
  }
  if (pos != payload.size()) {
    throw CorpusError("corrupt sample stream in trace " +
                      std::to_string(read_) + ": " +
                      std::to_string(payload.size() - pos) +
                      " surplus payload bytes: " + path_);
  }
  ++read_;
  return true;
}

} // namespace sct::sca
