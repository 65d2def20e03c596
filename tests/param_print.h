// Stable printing of value-parameter structs.
//
// Without a PrintTo, gtest prints a parameter as a hex dump of its object
// bytes, padding included.  Padding is uninitialised, so the dump — and the
// ctest name gtest_discover_tests builds from it — changed from build to
// build.  print_member_bytes keeps gtest's "N-byte object <..>" form but
// dumps only the listed members' bytes, with padding read as 00: the names
// keep their old deterministic prefix and no longer vary.

#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>

namespace dsm::testutil {

template <class T, class... M>
void print_member_bytes(const T& value, std::ostream* os, M T::*... members) {
  unsigned char bytes[sizeof(T)] = {};
  const auto* base = reinterpret_cast<const unsigned char*>(&value);
  const auto copy = [&](const auto& member) {
    const auto* at = reinterpret_cast<const unsigned char*>(&member);
    std::memcpy(bytes + (at - base), at, sizeof member);
  };
  (copy(value.*members), ...);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof(T), os);
}

}  // namespace dsm::testutil
