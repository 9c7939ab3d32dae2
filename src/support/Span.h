//===- support/Span.h - Non-owning array view ------------------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A pointer and a length over contiguous elements someone else owns: the
/// part of C++20's std::span this project uses (the range of one
/// statement's annotations, one list inside an annotation's payload).
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_SUPPORT_SPAN_H
#define WEAVER_SUPPORT_SPAN_H

#include <cassert>
#include <cstddef>

namespace weaver {

template <typename T> class Span {
public:
  Span() = default;
  Span(T *Data, size_t Size) : Data(Data), Size(Size) {}

  T *begin() const { return Data; }
  T *end() const { return Data + Size; }
  T *data() const { return Data; }
  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  T &operator[](size_t I) const {
    assert(I < Size && "span index out of range");
    return Data[I];
  }

private:
  T *Data = nullptr;
  size_t Size = 0;
};

} // namespace weaver

#endif // WEAVER_SUPPORT_SPAN_H
