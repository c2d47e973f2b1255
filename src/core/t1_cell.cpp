#include "core/t1_cell.hpp"

#include <algorithm>
#include <array>

namespace t1sfq {

std::optional<T1PortFn> classify_t1_function(const TruthTable& f) {
  if (f.num_vars() != 3 || f.support_size() != 3) {
    return std::nullopt;
  }
  if (f == tt3::xor3()) return T1PortFn::Sum;
  if (f == tt3::maj3()) return T1PortFn::Carry;
  if (f == tt3::or3()) return T1PortFn::Or;
  if (f == tt3::minority3()) return T1PortFn::CarryN;
  if (f == tt3::nor3()) return T1PortFn::OrN;
  return std::nullopt;
}

namespace {

/// T1PortFn index + 1 per 3-variable function word; 0 = not a T1 function.
constexpr std::array<uint8_t, 256> kT1Lut = [] {
  std::array<uint8_t, 256> lut{};
  lut[0x96] = 1 + static_cast<uint8_t>(T1PortFn::Sum);
  lut[0xe8] = 1 + static_cast<uint8_t>(T1PortFn::Carry);
  lut[0xfe] = 1 + static_cast<uint8_t>(T1PortFn::Or);
  lut[0x17] = 1 + static_cast<uint8_t>(T1PortFn::CarryN);
  lut[0x01] = 1 + static_cast<uint8_t>(T1PortFn::OrN);
  return lut;
}();

}  // namespace

std::optional<T1PortFn> classify_t1_word(uint8_t f) {
  if (kT1Lut[f] == 0) {
    return std::nullopt;
  }
  return static_cast<T1PortFn>(kT1Lut[f] - 1);
}

unsigned t1_area(const CellLibrary& lib, const std::vector<T1PortFn>& ports) {
  unsigned area = lib.jj_t1;
  std::vector<T1PortFn> seen;
  for (const T1PortFn p : ports) {
    if (std::find(seen.begin(), seen.end(), p) != seen.end()) {
      continue;  // one port serves all roots with the same function
    }
    seen.push_back(p);
    area += lib.jj_cost(GateType::T1Port, p);
  }
  return area;
}

}  // namespace t1sfq
