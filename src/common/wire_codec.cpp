#include "common/wire_codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "common/compress.hpp"
#include "common/error.hpp"

namespace vcdl {
namespace {

constexpr std::uint32_t kBlobDeltaMagic = 0x31444356;  // "VCD1" little-endian
constexpr std::uint32_t kFrameMagic = 0x31574356;      // "VCW1" little-endian
constexpr std::uint32_t kBundleMagic = 0x31424356;     // "VCB1" little-endian
constexpr std::uint8_t kModeDelta = 1;
constexpr std::uint8_t kModeQ8 = 2;
constexpr std::size_t kQ8Block = 1024;  // floats per quantization block

// --- Word-difference transform ----------------------------------------------
//
// The delta engine treats the overlapping region of base/target as 32-bit
// little-endian words (optionally after skipping `phase` bytes so the words
// line up with the payload's float array) and encodes each target word as
// the zigzagged integer difference from the base word. IEEE-754 floats of
// the same sign order like their bit patterns, so near-identical parameter
// copies produce *small* integers whose zigzag bytes are zero in the upper
// planes; a byte-plane transpose then hands the LZ codec long zero runs.
// Integer wraparound makes the transform exactly invertible for any bytes.

std::uint32_t zigzag32(std::uint32_t diff) {
  const std::int32_t s = static_cast<std::int32_t>(diff);
  return (static_cast<std::uint32_t>(s) << 1) ^
         static_cast<std::uint32_t>(s >> 31);
}

std::uint32_t unzigzag32(std::uint32_t z) {
  return (z >> 1) ^ (~(z & 1) + 1);
}

std::uint32_t load32(std::span<const std::uint8_t> s, std::size_t at) {
  std::uint32_t w = 0;
  std::memcpy(&w, s.data() + at, sizeof(w));
  return w;
}

void store32(std::vector<std::uint8_t>& s, std::size_t at, std::uint32_t w) {
  std::memcpy(s.data() + at, &w, sizeof(w));
}

// Raw (pre-compression) delta stream for one phase: XOR prefix, transposed
// zigzag word-difference planes, XOR tail, then target bytes past the end of
// the base verbatim.
std::vector<std::uint8_t> diff_stream(std::span<const std::uint8_t> base,
                                      std::span<const std::uint8_t> target,
                                      std::size_t phase) {
  const std::size_t overlap = std::min(base.size(), target.size());
  const std::size_t prefix = std::min(phase, overlap);
  const std::size_t words = (overlap - prefix) / 4;
  std::vector<std::uint8_t> out(target.size());
  std::size_t at = 0;
  for (std::size_t i = 0; i < prefix; ++i) out[at++] = base[i] ^ target[i];
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t pos = prefix + w * 4;
    const std::uint32_t z =
        zigzag32(load32(target, pos) - load32(base, pos));
    for (std::size_t plane = 0; plane < 4; ++plane) {
      out[at + plane * words + w] =
          static_cast<std::uint8_t>((z >> (8 * plane)) & 0xFF);
    }
  }
  at += words * 4;
  for (std::size_t i = prefix + words * 4; i < overlap; ++i) {
    out[at++] = base[i] ^ target[i];
  }
  for (std::size_t i = overlap; i < target.size(); ++i) out[at++] = target[i];
  return out;
}

std::vector<std::uint8_t> undiff_stream(std::span<const std::uint8_t> base,
                                        std::span<const std::uint8_t> stream,
                                        std::size_t phase) {
  const std::size_t overlap = std::min(base.size(), stream.size());
  const std::size_t prefix = std::min(phase, overlap);
  const std::size_t words = (overlap - prefix) / 4;
  std::vector<std::uint8_t> out(stream.size());
  std::size_t at = 0;
  for (std::size_t i = 0; i < prefix; ++i) out[i] = base[i] ^ stream[at++];
  for (std::size_t w = 0; w < words; ++w) {
    std::uint32_t z = 0;
    for (std::size_t plane = 0; plane < 4; ++plane) {
      z |= static_cast<std::uint32_t>(stream[at + plane * words + w])
           << (8 * plane);
    }
    const std::size_t pos = prefix + w * 4;
    store32(out, pos, load32(base, pos) + unzigzag32(z));
  }
  at += words * 4;
  for (std::size_t i = prefix + words * 4; i < overlap; ++i) {
    out[i] = base[i] ^ stream[at++];
  }
  for (std::size_t i = overlap; i < stream.size(); ++i) out[i] = stream[at++];
  return out;
}

constexpr std::uint8_t kBodyRaw = 0;  // incompressible stream stored verbatim
constexpr std::uint8_t kBodyLz = 1;

// LZ the stream only when it actually helps — mixed-entropy delta planes can
// make a greedy LZ *expand*, and an honest wire bill needs the min.
void write_body(BinaryWriter& w, std::span<const std::uint8_t> stream) {
  Blob packed = compress(stream);
  if (packed.size() < stream.size()) {
    w.write(kBodyLz);
    w.write_bytes(packed.view());
  } else {
    w.write(kBodyRaw);
    w.write_bytes(stream);
  }
}

std::vector<std::uint8_t> read_body(BinaryReader& r) {
  const auto method = r.read<std::uint8_t>();
  if (method == kBodyLz) {
    const Blob unpacked = decompress(r.read_bytes());
    return std::vector<std::uint8_t>(unpacked.view().begin(),
                                     unpacked.view().end());
  }
  if (method != kBodyRaw) throw CorruptData("wire codec: bad body method");
  return r.read_bytes();
}

// Outer frame layout mirrors nn/model_io's save_params: [u64 FNV of inner]
// [varint len][inner bytes], so corruption anywhere is caught by one hash
// check that needs no base parameters.
Blob wrap_frame(Blob inner) {
  BinaryWriter w;
  w.write(inner.hash());
  w.write_bytes(inner.view());
  return w.take();
}

struct ParsedFrame {
  std::uint8_t mode = 0;
  std::uint64_t base_version = 0;
  std::uint64_t base_hash = 0;
  std::uint64_t count = 0;
  std::vector<std::uint8_t> body;
  bool hash_ok = false;
};

std::optional<ParsedFrame> parse_frame(const Blob& payload) {
  try {
    BinaryReader outer(payload);
    const std::uint64_t expected_hash = outer.read<std::uint64_t>();
    Blob inner(outer.read_bytes());
    if (!outer.done()) return std::nullopt;
    BinaryReader r(inner);
    if (r.read<std::uint32_t>() != kFrameMagic) return std::nullopt;
    ParsedFrame p;
    p.mode = r.read<std::uint8_t>();
    if (p.mode != kModeDelta && p.mode != kModeQ8) return std::nullopt;
    p.base_version = r.read_varint();
    p.base_hash = r.read<std::uint64_t>();
    p.count = r.read_varint();
    p.body = r.read_bytes();
    if (!r.done()) return std::nullopt;
    p.hash_ok = inner.hash() == expected_hash;
    return p;
  } catch (const CorruptData&) {
    return std::nullopt;
  }
}

Blob make_frame(std::uint8_t mode, std::uint64_t base_version,
                std::uint64_t base_hash, std::uint64_t count,
                const Blob& body) {
  BinaryWriter w;
  w.write(kFrameMagic);
  w.write(mode);
  w.write_varint(base_version);
  w.write(base_hash);
  w.write_varint(count);
  w.write_bytes(body.view());
  return wrap_frame(w.take());
}

}  // namespace

WireMode wire_mode_from_name(const std::string& name) {
  if (name == "full") return WireMode::full;
  if (name == "delta") return WireMode::delta;
  if (name == "delta_q8") return WireMode::delta_q8;
  throw InvalidArgument("unknown wire_codec mode \"" + name +
                        "\" (expected full | delta | delta_q8)");
}

Blob delta_encode(std::span<const std::uint8_t> base,
                  std::span<const std::uint8_t> target) {
  // Serialized payloads carry variable-length headers before their float
  // array, so the word grid may sit at any byte offset. Try all four phases
  // and bill the smallest — the chosen phase travels in the header.
  std::optional<Blob> best;
  const std::size_t scan =
      std::min(base.size(), target.size()) >= 8 ? 4 : 1;
  for (std::size_t phase = 0; phase < scan; ++phase) {
    BinaryWriter w;
    w.write(kBlobDeltaMagic);
    w.write_varint(target.size());
    w.write(static_cast<std::uint8_t>(phase));
    write_body(w, diff_stream(base, target, phase));
    Blob candidate = w.take();
    if (!best || candidate.size() < best->size()) {
      best.emplace(std::move(candidate));
    }
  }
  return std::move(*best);
}

Blob delta_decode(std::span<const std::uint8_t> base,
                  std::span<const std::uint8_t> encoded) {
  BinaryReader r(encoded);
  if (r.read<std::uint32_t>() != kBlobDeltaMagic) {
    throw CorruptData("delta_decode: bad magic");
  }
  const std::uint64_t target_size = r.read_varint();
  const auto phase = r.read<std::uint8_t>();
  if (phase > 3) throw CorruptData("delta_decode: bad phase");
  const std::vector<std::uint8_t> stream = read_body(r);
  if (!r.done() || stream.size() != target_size) {
    throw CorruptData("delta_decode: size mismatch");
  }
  return Blob(undiff_stream(base, stream, phase));
}

// Views a float array as raw little-endian bytes for the word-diff engine.
// Floats are exactly one 32-bit word each, so phase 0 always lines up.
std::span<const std::uint8_t> float_bytes(std::span<const float> a) {
  return {reinterpret_cast<const std::uint8_t*>(a.data()),
          a.size() * sizeof(float)};
}

std::uint64_t params_hash(std::span<const float> params) {
  return fnv1a(float_bytes(params));
}

Blob encode_params_delta(std::span<const float> base,
                         std::span<const float> target,
                         std::uint64_t base_version) {
  VCDL_CHECK(base.size() == target.size(),
             "encode_params_delta: base/target size mismatch");
  BinaryWriter body;
  write_body(body, diff_stream(float_bytes(base), float_bytes(target), 0));
  return make_frame(kModeDelta, base_version, params_hash(base),
                    target.size(), body.take());
}

Blob encode_params_q8(std::span<const float> base,
                      std::span<const float> target,
                      std::uint64_t base_version) {
  VCDL_CHECK(base.size() == target.size(),
             "encode_params_q8: base/target size mismatch");
  BinaryWriter body;
  for (std::size_t begin = 0; begin < target.size(); begin += kQ8Block) {
    const std::size_t end = std::min(begin + kQ8Block, target.size());
    // A non-finite diff (diverged weight, Inf overflow) would poison lo/hi
    // and make lround(NaN) undefined; it is unrepresentable in a linear q8
    // block anyway, so leave it out of the range and quantize it to the
    // block's zero point below.
    float lo = 0.0f, hi = 0.0f;
    bool any_finite = false;
    for (std::size_t i = begin; i < end; ++i) {
      const float d = target[i] - base[i];
      if (!std::isfinite(d)) continue;
      if (!any_finite || d < lo) lo = d;
      if (!any_finite || d > hi) hi = d;
      any_finite = true;
    }
    const float step = any_finite ? (hi - lo) / 255.0f : 0.0f;
    body.write(lo);
    body.write(hi);
    std::vector<std::uint8_t> q(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      const float d = target[i] - base[i];
      float scaled = 0.0f;
      if (std::isfinite(d) && step > 0.0f) {
        scaled = std::clamp((d - lo) / step, 0.0f, 255.0f);
      }
      q[i - begin] = static_cast<std::uint8_t>(std::lround(scaled));
    }
    body.write_bytes(q);
  }
  const Blob blocks = body.take();
  BinaryWriter outer;
  write_body(outer, blocks.view());
  return make_frame(kModeQ8, base_version, params_hash(base), target.size(),
                    outer.take());
}

bool is_wire_frame(const Blob& payload) {
  return parse_frame(payload).has_value();
}

bool validate_frame(const Blob& payload) {
  const auto p = parse_frame(payload);
  return p.has_value() && p->hash_ok;
}

WireFrame read_frame_header(const Blob& payload) {
  const auto p = parse_frame(payload);
  if (!p || !p->hash_ok) {
    throw CorruptData("read_frame_header: not a valid wire frame");
  }
  WireFrame h;
  h.mode = p->mode == kModeDelta ? WireMode::delta : WireMode::delta_q8;
  h.base_version = p->base_version;
  h.base_hash = p->base_hash;
  h.count = p->count;
  return h;
}

namespace {

// Bundle layout mirrors the frame wrapper: [u64 FNV of inner][varint len]
// [inner], inner = [u32 magic][varint count][varint len + bytes per part].
// The container hash catches header corruption; part bodies additionally
// carry their own frame checksums.
std::optional<std::vector<Blob>> parse_bundle(const Blob& payload,
                                              bool check_hash) {
  try {
    BinaryReader outer(payload);
    const std::uint64_t expected_hash = outer.read<std::uint64_t>();
    Blob inner(outer.read_bytes());
    if (!outer.done()) return std::nullopt;
    if (check_hash && inner.hash() != expected_hash) return std::nullopt;
    BinaryReader r(inner);
    if (r.read<std::uint32_t>() != kBundleMagic) return std::nullopt;
    const std::uint64_t count = r.read_varint();
    if (count < 2) return std::nullopt;
    std::vector<Blob> parts;
    parts.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      parts.emplace_back(r.read_bytes());
    }
    if (!r.done()) return std::nullopt;
    return parts;
  } catch (const CorruptData&) {
    return std::nullopt;
  }
}

}  // namespace

Blob pack_shard_frames(const std::vector<Blob>& parts) {
  VCDL_CHECK(parts.size() >= 2, "pack_shard_frames: need >= 2 shards");
  BinaryWriter w;
  w.write(kBundleMagic);
  w.write_varint(parts.size());
  for (const Blob& part : parts) w.write_bytes(part.view());
  return wrap_frame(w.take());
}

bool is_shard_bundle(const Blob& payload) {
  return parse_bundle(payload, /*check_hash=*/false).has_value();
}

std::vector<Blob> unpack_shard_frames(const Blob& payload) {
  auto parts = parse_bundle(payload, /*check_hash=*/true);
  if (!parts.has_value()) {
    throw CorruptData("unpack_shard_frames: not a valid shard bundle");
  }
  return std::move(*parts);
}

bool validate_shard_bundle(const Blob& payload) {
  const auto parts = parse_bundle(payload, /*check_hash=*/true);
  if (!parts.has_value()) return false;
  for (const Blob& part : *parts) {
    if (!validate_frame(part)) return false;
  }
  return true;
}

std::vector<float> decode_params(const Blob& payload,
                                 std::span<const float> base) {
  const auto p = parse_frame(payload);
  if (!p || !p->hash_ok) {
    throw CorruptData("decode_params: not a valid wire frame");
  }
  if (p->count != base.size()) {
    throw CorruptData("decode_params: frame holds " +
                      std::to_string(p->count) + " params, base holds " +
                      std::to_string(base.size()));
  }
  BinaryReader body_reader(p->body);
  const std::vector<std::uint8_t> stream = read_body(body_reader);
  if (!body_reader.done()) {
    throw CorruptData("decode_params: trailing frame body bytes");
  }
  std::vector<float> out(p->count);
  if (p->mode == kModeDelta) {
    if (stream.size() != p->count * sizeof(float)) {
      throw CorruptData("decode_params: delta body size mismatch");
    }
    const std::vector<std::uint8_t> raw =
        undiff_stream(float_bytes(base), stream, 0);
    std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }
  const Blob unpacked{std::vector<std::uint8_t>(stream)};
  BinaryReader r(unpacked);
  std::size_t begin = 0;
  while (begin < out.size()) {
    const float lo = r.read<float>();
    const float hi = r.read<float>();
    const float step = (hi - lo) / 255.0f;
    const std::vector<std::uint8_t> q = r.read_bytes();
    const std::size_t expect = std::min(kQ8Block, out.size() - begin);
    if (q.size() != expect) {
      throw CorruptData("decode_params: q8 block size mismatch");
    }
    for (std::size_t i = 0; i < q.size(); ++i) {
      out[begin + i] =
          base[begin + i] + lo + step * static_cast<float>(q[i]);
    }
    begin += q.size();
  }
  if (!r.done()) throw CorruptData("decode_params: trailing q8 bytes");
  return out;
}

}  // namespace vcdl
