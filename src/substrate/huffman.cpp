// fzlint:hot-path — segment-parallel entropy decode; keep locks out of the
// per-symbol loops (the lint gate enforces allocation/wait discipline here).
#include "substrate/huffman.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <tuple>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "substrate/bitio.hpp"
#include "telemetry/telemetry.hpp"

namespace fz {

namespace {

struct TreeNode {
  u64 weight;
  u32 order;  // tie-break for determinism
  i32 left = -1;
  i32 right = -1;
  i32 symbol = -1;
};

struct HeapEntry {
  u64 weight;
  u32 order;
  i32 node;
  bool operator>(const HeapEntry& o) const {
    return std::tie(weight, order) > std::tie(o.weight, o.order);
  }
};

void assign_depths(const std::vector<TreeNode>& nodes, i32 root,
                   std::vector<u8>& lengths) {
  // Iterative DFS; depth of a leaf is its code length.
  std::vector<std::pair<i32, int>> stack{{root, 0}};
  while (!stack.empty()) {
    auto [n, depth] = stack.back();
    stack.pop_back();
    const TreeNode& node = nodes[static_cast<size_t>(n)];
    if (node.symbol >= 0) {
      lengths[static_cast<size_t>(node.symbol)] =
          static_cast<u8>(std::max(depth, 1));
      continue;
    }
    stack.emplace_back(node.left, depth + 1);
    stack.emplace_back(node.right, depth + 1);
  }
}

/// Symbols with nonzero length in canonical order (length, then value).
std::vector<u32> canonical_symbol_order(const std::vector<u8>& lengths) {
  std::vector<u32> syms;
  for (size_t s = 0; s < lengths.size(); ++s)
    if (lengths[s] != 0) syms.push_back(static_cast<u32>(s));
  std::sort(syms.begin(), syms.end(), [&](u32 a, u32 b) {
    return std::tie(lengths[a], a) < std::tie(lengths[b], b);
  });
  return syms;
}

}  // namespace

int HuffmanCodebook::max_length() const {
  u8 m = 0;
  for (const u8 l : lengths) m = std::max(m, l);
  return m;
}

void HuffmanCodebook::rebuild_codes_from_lengths() {
  codes.assign(lengths.size(), 0);
  const std::vector<u32> syms = canonical_symbol_order(lengths);
  u64 code = 0;
  int prev_len = 0;
  for (const u32 s : syms) {
    const int len = lengths[s];
    FZ_FORMAT_REQUIRE(len <= 63, "Huffman code length overflow");
    code <<= (len - prev_len);
    // An over-subscribed length table (Kraft sum > 1) runs the canonical
    // counter past 2^len — exactly the streams that would overflow the
    // decode table, so they are rejected here for every consumer at once.
    FZ_FORMAT_REQUIRE(code >> len == 0, "Huffman code lengths over-subscribed");
    codes[s] = code;
    ++code;
    prev_len = len;
  }
}

HuffmanCodebook HuffmanCodebook::build(std::span<const u64> histogram) {
  HuffmanCodebook book;
  const size_t n = histogram.size();
  book.lengths.assign(n, 0);
  book.codes.assign(n, 0);

  std::vector<TreeNode> nodes;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  u32 order = 0;
  for (size_t s = 0; s < n; ++s) {
    if (histogram[s] == 0) continue;
    nodes.push_back({histogram[s], order, -1, -1, static_cast<i32>(s)});
    heap.push({histogram[s], order, static_cast<i32>(nodes.size() - 1)});
    ++order;
  }
  if (nodes.empty()) return book;
  if (nodes.size() == 1) {
    book.lengths[static_cast<size_t>(nodes[0].symbol)] = 1;
    // canonical code 0, length 1
    return book;
  }
  while (heap.size() > 1) {
    const HeapEntry a = heap.top();
    heap.pop();
    const HeapEntry b = heap.top();
    heap.pop();
    nodes.push_back({a.weight + b.weight, order, a.node, b.node, -1});
    heap.push({a.weight + b.weight, order, static_cast<i32>(nodes.size() - 1)});
    ++order;
  }
  assign_depths(nodes, heap.top().node, book.lengths);
  FZ_REQUIRE(book.max_length() <= 63, "Huffman code length overflow");
  book.rebuild_codes_from_lengths();
  return book;
}

HuffmanDecodeTables build_decode_tables(const HuffmanCodebook& book) {
  HuffmanDecodeTables t;
  const int maxlen = book.max_length();
  FZ_FORMAT_REQUIRE(maxlen <= 63, "Huffman code length overflow");
  t.max_length = maxlen;
  t.sorted_syms = canonical_symbol_order(book.lengths);
  t.count_per_len.assign(static_cast<size_t>(maxlen) + 1, 0);
  for (const u32 s : t.sorted_syms) ++t.count_per_len[book.lengths[s]];
  t.first_code.assign(static_cast<size_t>(maxlen) + 2, 0);
  t.first_index.assign(static_cast<size_t>(maxlen) + 2, 0);
  {
    u64 code = 0;
    u32 index = 0;
    for (int len = 1; len <= maxlen; ++len) {
      const u32 at_len = t.count_per_len[static_cast<size_t>(len)];
      // Same over-subscription bound rebuild_codes_from_lengths enforces:
      // every length's code range must fit in `len` bits or the table fill
      // below would run off the end.
      FZ_FORMAT_REQUIRE(code + at_len <= (u64{1} << len),
                        "Huffman code lengths over-subscribed");
      t.first_code[static_cast<size_t>(len)] = code;
      t.first_index[static_cast<size_t>(len)] = index;
      code = (code + at_len) << 1;
      index += at_len;
    }
    t.first_code[static_cast<size_t>(maxlen) + 1] = code;
    t.first_index[static_cast<size_t>(maxlen) + 1] = index;
  }
  if (maxlen == 0) return t;  // empty codebook: bit-serial tables only

  const int K = std::min(maxlen, HuffmanDecodeTables::kMaxPrimaryBits);
  t.primary_bits = K;

  // Pass 1: per-primary-prefix sub-table width = the largest excess
  // (len - K) among long codes sharing that prefix.
  std::vector<u8> sub_bits(size_t{1} << K, 0);
  {
    u64 code = 0;
    int prev_len = 0;
    for (const u32 s : t.sorted_syms) {
      const int len = book.lengths[s];
      code <<= (len - prev_len);
      if (len > K) {
        const size_t prefix = static_cast<size_t>(code >> (len - K));
        sub_bits[prefix] =
            std::max(sub_bits[prefix], static_cast<u8>(len - K));
      }
      ++code;
      prev_len = len;
    }
  }
  size_t secondary_total = 0;
  std::vector<u32> sub_offset(size_t{1} << K, 0);
  for (size_t p = 0; p < sub_bits.size(); ++p) {
    if (sub_bits[p] == 0) continue;
    sub_offset[p] = static_cast<u32>(secondary_total);
    secondary_total += size_t{1} << sub_bits[p];
    if (secondary_total > HuffmanDecodeTables::kMaxSecondaryEntries) {
      // A legal but pathologically deep codebook: stay on the bit-serial
      // walk rather than allocate an unbounded table.
      t.primary_bits = 0;
      return t;
    }
  }

  t.primary.assign(size_t{1} << K, HuffmanDecodeTables::kInvalidEntry);
  t.secondary.assign(secondary_total, HuffmanDecodeTables::kInvalidEntry);
  for (size_t p = 0; p < sub_bits.size(); ++p) {
    if (sub_bits[p] != 0)
      t.primary[p] = HuffmanDecodeTables::kLongFlag |
                     (static_cast<u32>(sub_bits[p])
                      << HuffmanDecodeTables::kLenShift) |
                     sub_offset[p];
  }

  // Pass 2: range-fill.  A code of length len <= K owns every primary slot
  // whose top len bits equal it; a longer code owns the analogous slice of
  // its prefix's sub-table.
  {
    u64 code = 0;
    int prev_len = 0;
    for (const u32 s : t.sorted_syms) {
      const int len = book.lengths[s];
      code <<= (len - prev_len);
      const u32 entry =
          static_cast<u32>(s) |
          (static_cast<u32>(len) << HuffmanDecodeTables::kLenShift);
      if (len <= K) {
        const size_t lo = static_cast<size_t>(code) << (K - len);
        const size_t fill = size_t{1} << (K - len);
        std::fill_n(t.primary.begin() + static_cast<long>(lo), fill, entry);
      } else {
        const size_t prefix = static_cast<size_t>(code >> (len - K));
        const int sb = sub_bits[prefix];
        const u64 rest = code & ((u64{1} << (len - K)) - 1);
        const size_t lo =
            sub_offset[prefix] + (static_cast<size_t>(rest) << (sb - (len - K)));
        const size_t fill = size_t{1} << (sb - (len - K));
        std::fill_n(t.secondary.begin() + static_cast<long>(lo), fill, entry);
      }
      ++code;
      prev_len = len;
    }
  }
  t.table_ok = true;
  return t;
}

size_t HuffmanLayout::segments_in_chunk(size_t c) const {
  if (segment_size == 0) return 1;
  const size_t begin = c * static_cast<size_t>(chunk_size);
  const size_t end =
      std::min<size_t>(begin + chunk_size, static_cast<size_t>(count));
  return div_ceil(end - begin, static_cast<size_t>(segment_size));
}

size_t HuffmanLayout::total_segments() const {
  return gap_start.back() + num_chunks;
}

HuffmanLayout parse_huffman_layout(ByteSpan encoded) {
  HuffmanLayout lay;
  ByteReader r(encoded);
  const u32 first = r.get<u32>();
  if (first == kHuffGapMagic) {
    lay.num_chunks = r.get<u32>();
    lay.chunk_size = r.get<u32>();
    lay.segment_size = r.get<u32>();
    lay.count = r.get<u64>();
    FZ_FORMAT_REQUIRE(lay.segment_size > 0, "bad segment size");
  } else {
    // Legacy (pre-gap) layout: the first word is the chunk count.
    lay.num_chunks = first;
    lay.chunk_size = r.get<u32>();
    lay.segment_size = 0;
    lay.count = r.get<u64>();
  }
  FZ_FORMAT_REQUIRE(lay.chunk_size > 0, "bad chunk size");
  FZ_FORMAT_REQUIRE(lay.num_chunks == div_ceil(lay.count, lay.chunk_size),
                    "chunk count mismatch");
  // Bound table allocations by the bytes actually present: a hostile chunk
  // count must not allocate gigabytes before the reads below reject it.
  FZ_FORMAT_REQUIRE(size_t{lay.num_chunks} * sizeof(u32) <= r.remaining(),
                    "chunk table exceeds stream");
  lay.sizes.resize(lay.num_chunks);
  for (auto& s : lay.sizes) s = r.get<u32>();
  lay.offsets.assign(size_t{lay.num_chunks} + 1, 0);
  for (size_t c = 0; c < lay.num_chunks; ++c)
    lay.offsets[c + 1] = lay.offsets[c] + lay.sizes[c];

  lay.gap_start.assign(size_t{lay.num_chunks} + 1, 0);
  for (size_t c = 0; c < lay.num_chunks; ++c)
    lay.gap_start[c + 1] = lay.gap_start[c] + (lay.segments_in_chunk(c) - 1);
  if (lay.segment_size != 0) {
    FZ_FORMAT_REQUIRE(lay.gap_start.back() * sizeof(u32) <= r.remaining(),
                      "gap array exceeds stream");
    lay.gaps.resize(lay.gap_start.back());
    for (auto& g : lay.gaps) g = r.get<u32>();
    for (size_t c = 0; c < lay.num_chunks; ++c)
      for (size_t k = lay.gap_start[c]; k < lay.gap_start[c + 1]; ++k)
        FZ_FORMAT_REQUIRE(lay.gaps[k] <= size_t{lay.sizes[c]} * 8,
                          "gap offset exceeds chunk");
  }
  lay.payload = r.get_bytes(lay.offsets.back());
  return lay;
}

std::vector<u8> huffman_encode(std::span<const u16> symbols,
                               const HuffmanCodebook& book,
                               const HuffmanEncodeOptions& opts) {
  const size_t chunk_size = opts.chunk_size;
  const size_t segment_size = opts.segment_size;
  FZ_REQUIRE(chunk_size > 0, "chunk size must be positive");
  const size_t num_chunks = div_ceil(symbols.size(), chunk_size);

  telemetry::Span span(telemetry::active_sink(), "huffman-encode");

  std::vector<std::vector<u8>> payloads(num_chunks);
  std::vector<std::vector<u32>> gaps(num_chunks);
  const size_t chunk_bytes = 2 * chunk_size * sizeof(u16);  // in, <= out
  parallel_for(0, num_chunks, chunk_bytes, [&](size_t c) {
    BitWriterMsb bw;
    const size_t begin = c * chunk_size;
    const size_t end = std::min(begin + chunk_size, symbols.size());
    for (size_t i = begin; i < end; ++i) {
      if (segment_size != 0 && i != begin &&
          (i - begin) % segment_size == 0) {
        const size_t bits = bw.bit_count();
        FZ_REQUIRE(bits <= 0xffffffffu, "chunk too large for gap array");
        gaps[c].push_back(static_cast<u32>(bits));
      }
      const u16 s = symbols[i];
      FZ_REQUIRE(s < book.num_symbols() && book.lengths[s] != 0,
                 "symbol missing from codebook");
      bw.put_bits(book.codes[s], book.lengths[s]);
    }
    payloads[c] = bw.take();
  });

  std::vector<u8> out;
  ByteWriter w(out);
  if (segment_size != 0) {
    w.put<u32>(kHuffGapMagic);
    w.put<u32>(static_cast<u32>(num_chunks));
    w.put<u32>(static_cast<u32>(chunk_size));
    w.put<u32>(static_cast<u32>(segment_size));
    w.put<u64>(symbols.size());
    for (const auto& p : payloads) w.put<u32>(static_cast<u32>(p.size()));
    for (const auto& g : gaps)
      for (const u32 bit : g) w.put<u32>(bit);
  } else {
    w.put<u32>(static_cast<u32>(num_chunks));
    w.put<u32>(static_cast<u32>(chunk_size));
    w.put<u64>(symbols.size());
    for (const auto& p : payloads) w.put<u32>(static_cast<u32>(p.size()));
  }
  for (const auto& p : payloads) w.put_bytes(p);
  if (span.enabled()) {
    span.arg("bytes_in", static_cast<double>(symbols.size() * sizeof(u16)));
    span.arg("bytes_out", static_cast<double>(out.size()));
    span.arg("chunks", static_cast<double>(num_chunks));
  }
  return out;
}

std::vector<u8> huffman_encode(std::span<const u16> symbols,
                               const HuffmanCodebook& book, size_t chunk_size) {
  return huffman_encode(symbols, book, HuffmanEncodeOptions{chunk_size});
}

std::vector<u16> huffman_decode(ByteSpan encoded, const HuffmanCodebook& book,
                                const HuffmanDecodeOptions& opts) {
  telemetry::Span span(telemetry::active_sink(), "huffman-decode");
  const HuffmanLayout lay = parse_huffman_layout(encoded);
  // Each symbol costs at least one bit, so a corrupt count that exceeds
  // the payload's bit capacity is rejected before allocating the output.
  FZ_FORMAT_REQUIRE(lay.count <= lay.payload.size() * 8,
                    "symbol count exceeds payload");
  const HuffmanDecodeTables tables = build_decode_tables(book);
  const int maxlen = tables.max_length;
  FZ_FORMAT_REQUIRE(maxlen > 0 || lay.count == 0, "empty codebook");

  std::vector<u16> out(lay.count);
  const size_t nseg = lay.total_segments();
  // Flatten (chunk, segment) so the parallel loop load-balances across the
  // whole stream, not per chunk.  seg_base[c] = gap_start[c] + c because a
  // chunk has one more segment than it has gaps.
  std::vector<u32> seg_chunk(nseg);
  for (size_t c = 0; c < lay.num_chunks; ++c) {
    const size_t base = lay.gap_start[c] + c;
    const size_t segs = lay.segments_in_chunk(c);
    std::fill_n(seg_chunk.begin() + static_cast<long>(base), segs,
                static_cast<u32>(c));
  }
  const bool use_table = opts.table_fast && tables.table_ok;
  const int K = tables.primary_bits;
  const u32* primary = tables.primary.data();
  const u32* secondary = tables.secondary.data();

  parallel_tasks(nseg, opts.workers, [&](size_t g, size_t) {
    const size_t c = seg_chunk[g];
    const size_t s = g - (lay.gap_start[c] + c);
    const size_t chunk_begin = c * static_cast<size_t>(lay.chunk_size);
    const size_t chunk_end =
        std::min<size_t>(chunk_begin + lay.chunk_size, lay.count);
    const size_t seg_size = lay.segment_size == 0 ? chunk_end - chunk_begin
                                                  : lay.segment_size;
    const size_t begin = chunk_begin + s * seg_size;
    const size_t end = std::min(begin + seg_size, chunk_end);
    const ByteSpan chunk = lay.payload.subspan(lay.offsets[c], lay.sizes[c]);
    const size_t start_bit = s == 0 ? 0 : lay.gaps[lay.gap_start[c] + s - 1];
    BitReaderMsb br(chunk, start_bit);

    if (use_table) {
      // Table-driven fast path: resolve whole codes from a wide peek()
      // window.  One peek(kMaxPeek)/consume(used) pair serves as many
      // symbols as fit ahead of the worst-case code width, so the
      // per-symbol work is just a shift, a table hit and a length add.
      // peek() pads past the end with zeros; consume() still rejects any
      // advance into the padding, so truncated streams fail with the same
      // FormatError as the bit-serial walk (the garbage symbols decoded
      // from padding die with the throw).
      constexpr int kWin = BitReaderMsb::kMaxPeek;
      const int worst = maxlen;  // table_ok bounds this by K + sub_bits
      u16* op = out.data();
      for (size_t i = begin; i < end;) {
        // MSB-aligned shift register: the next unread bit is bit 63, so a
        // code resolves as one shift + one table hit, and advancing is one
        // more shift — no per-symbol offset arithmetic.
        u64 win = br.peek(kWin) << (64 - kWin);
        int used = 0;
        do {
          const u32 e = primary[win >> (64 - K)];
          FZ_FORMAT_REQUIRE(e != HuffmanDecodeTables::kInvalidEntry,
                            "invalid Huffman code");
          if ((e & HuffmanDecodeTables::kLongFlag) == 0) {
            const int len = static_cast<int>(e >> HuffmanDecodeTables::kLenShift);
            op[i++] = static_cast<u16>(e & 0xffff);
            win <<= len;
            used += len;
          } else {
            const int sub =
                static_cast<int>(e >> HuffmanDecodeTables::kLenShift) & 0x3f;
            const u32 e2 =
                secondary[(e & 0x00ffffffu) + ((win << K) >> (64 - sub))];
            FZ_FORMAT_REQUIRE(e2 != HuffmanDecodeTables::kInvalidEntry,
                              "invalid Huffman code");
            const int len =
                static_cast<int>(e2 >> HuffmanDecodeTables::kLenShift);
            op[i++] = static_cast<u16>(e2 & 0xffff);
            win <<= len;
            used += len;
          }
        } while (i < end && used + worst <= kWin);
        br.consume(used);
      }
      return;
    }
    // Bit-serial canonical walk (legacy-equivalent reference; also the
    // fallback for codebooks too deep for the table budget).
    for (size_t i = begin; i < end; ++i) {
      u64 code = 0;
      int len = 0;
      for (;;) {
        code = (code << 1) | u64{br.get_bit()};
        ++len;
        FZ_FORMAT_REQUIRE(len <= maxlen, "invalid Huffman code");
        const u64 base = tables.first_code[static_cast<size_t>(len)];
        const u32 n_at_len = tables.count_per_len[static_cast<size_t>(len)];
        if (n_at_len != 0 && code >= base && code < base + n_at_len) {
          const u32 idx = tables.first_index[static_cast<size_t>(len)] +
                          static_cast<u32>(code - base);
          out[i] = static_cast<u16>(tables.sorted_syms[idx]);
          break;
        }
      }
    }
  });
  if (span.enabled()) {
    span.arg("bytes_in", static_cast<double>(encoded.size()));
    span.arg("symbols", static_cast<double>(lay.count));
    span.arg("chunks", static_cast<double>(lay.num_chunks));
    span.arg("segments", static_cast<double>(nseg));
    span.arg("table_fast", use_table ? 1.0 : 0.0);
  }
  return out;
}

std::vector<u8> huffman_compress(std::span<const u16> symbols, size_t num_bins,
                                 size_t chunk_size) {
  std::vector<u64> hist(num_bins, 0);
  for (const u16 s : symbols) {
    FZ_REQUIRE(s < num_bins, "symbol out of range for codebook");
    ++hist[s];
  }
  const HuffmanCodebook book = HuffmanCodebook::build(hist);
  std::vector<u8> out;
  ByteWriter w(out);
  w.put<u32>(static_cast<u32>(num_bins));
  for (const u8 l : book.lengths) w.put<u8>(l);
  const std::vector<u8> payload =
      huffman_encode(symbols, book, HuffmanEncodeOptions{chunk_size});
  w.put_bytes(payload);
  return out;
}

std::vector<u16> huffman_decompress(ByteSpan stream) {
  ByteReader r(stream);
  const u32 num_bins = r.get<u32>();
  FZ_FORMAT_REQUIRE(num_bins > 0 && num_bins <= (1u << 16), "bad bin count");
  HuffmanCodebook book;
  book.lengths.resize(num_bins);
  for (auto& l : book.lengths) l = r.get<u8>();
  // Stream lengths are untrusted: the shared canonical rebuild rejects
  // over-long and over-subscribed tables with FormatError before any
  // decode table is sized from them.
  book.rebuild_codes_from_lengths();
  const ByteSpan payload = ByteSpan{stream}.subspan(r.pos());
  return huffman_decode(payload, book);
}

size_t huffman_gap_bytes(size_t count, size_t chunk_size, size_t segment_size) {
  if (segment_size == 0 || chunk_size == 0) return 0;
  const size_t num_chunks = div_ceil(count, chunk_size);
  size_t gaps = 0;
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t begin = c * chunk_size;
    const size_t end = std::min(begin + chunk_size, count);
    gaps += div_ceil(end - begin, segment_size) - 1;
  }
  // Gap words plus the extra header fields (magic + segment size).
  return gaps * sizeof(u32) + 2 * sizeof(u32);
}

double codebook_build_serial_ns(size_t num_bins) {
  // Serial heap-based tree build: O(n log n) node merges, each a long
  // dependency chain on device.  ~1.2 ms at 1024 bins — calibrated so the
  // codebook dominates cuSZ on small fields (paper: 10.7x FZ speedup on
  // CESM) while remaining visible on large ones (4.2x average).
  const double n = static_cast<double>(num_bins);
  return 120.0 * n * std::max(1.0, std::log2(n));
}

}  // namespace fz
