//===- support/TextWriter.h - Buffered text sink ---------------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sink every QASM printer writes through. Text and numerals
/// (std::to_chars) go straight into a fixed chunk inside the writer, which
/// is appended to the caller's string when full and when the writer is
/// destroyed: the string grows in large blocks, not per token, and holds
/// no zero-filled slack.
/// It owns the one numeral form per value kind; appendDouble and
/// formatDouble in support/StringUtils.h wrap it.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_SUPPORT_TEXTWRITER_H
#define WEAVER_SUPPORT_TEXTWRITER_H

#include <charconv>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace weaver {

/// Buffered appender to one string, which must not be touched directly
/// while the writer holds bytes; the destructor flushes.
class TextWriter {
public:
  explicit TextWriter(std::string &Out) : Out(Out) {}
  ~TextWriter() { flush(); }
  TextWriter(const TextWriter &) = delete;
  TextWriter &operator=(const TextWriter &) = delete;

  /// Returns the text \p Write writes through a writer of its own.
  template <typename Fn> static std::string render(Fn &&Write) {
    std::string Out;
    {
      TextWriter W(Out);
      Write(W);
    }
    return Out;
  }

  /// Text as is, an int in decimal, a double exactly as printf("%.17g")
  /// (which std::to_chars(general, 17) is by definition). Wider or
  /// unsigned integers are ambiguous and do not compile, so nothing is
  /// narrowed silently.
  TextWriter &operator<<(std::string_view S) {
    if (S.size() >= ChunkBytes) {
      flush();
      Out.append(S);
      return *this;
    }
    room(S.size());
    std::memcpy(Cur, S.data(), S.size());
    Cur += S.size();
    return *this;
  }
  TextWriter &operator<<(char C) {
    room(1);
    *Cur++ = C;
    return *this;
  }
  TextWriter &operator<<(int V) { return integer(V); }
  TextWriter &operator<<(double V) {
    room(32); // the longest is 25 bytes: "-4.9406564584124654e-324"
    Cur = std::to_chars(Cur, Cur + 32, V, std::chars_format::general, 17).ptr;
    return *this;
  }
  /// The length \p Nm (nanometres) in micrometres: an exact decimal with
  /// at most three fractional digits and no trailing zeros (14400 -> "14.4",
  /// -900 -> "-0.9", 19732 -> "19.732", 6000 -> "6"). The one length form
  /// of the wQASM text; parseMicrons inverts it.
  TextWriter &microns(int64_t Nm) {
    uint64_t Mag = Nm < 0 ? 0 - static_cast<uint64_t>(Nm) : Nm;
    if (Nm < 0)
      *this << '-';
    integer(static_cast<long long>(Mag / 1000));
    if (unsigned Frac = Mag % 1000) {
      char Digits[] = {'.', static_cast<char>('0' + Frac / 100),
                       static_cast<char>('0' + Frac / 10 % 10),
                       static_cast<char>('0' + Frac % 10)};
      *this << std::string_view(Digits, Frac % 10 ? 4 : Frac % 100 ? 3 : 2);
    }
    return *this;
  }

private:
  static constexpr size_t ChunkBytes = 16384;
  void flush() {
    Out.append(Chunk, Cur - Chunk);
    Cur = Chunk;
  }
  /// Makes room for \p N <= ChunkBytes contiguous bytes at Cur.
  void room(size_t N) {
    if (static_cast<size_t>(Chunk + ChunkBytes - Cur) < N)
      flush();
  }
  TextWriter &integer(long long V) {
    room(24);
    Cur = std::to_chars(Cur, Cur + 24, V).ptr;
    return *this;
  }

  std::string &Out;
  char Chunk[ChunkBytes];
  char *Cur = Chunk;
};

} // namespace weaver

#endif // WEAVER_SUPPORT_TEXTWRITER_H
