#include "core/t1_cell.hpp"

#include <gtest/gtest.h>

namespace t1sfq {
namespace {

TEST(T1Cell, ClassifiesTheFivePortFunctions) {
  EXPECT_EQ(classify_t1_function(tt3::xor3()), T1PortFn::Sum);
  EXPECT_EQ(classify_t1_function(tt3::maj3()), T1PortFn::Carry);
  EXPECT_EQ(classify_t1_function(tt3::or3()), T1PortFn::Or);
  EXPECT_EQ(classify_t1_function(tt3::minority3()), T1PortFn::CarryN);
  EXPECT_EQ(classify_t1_function(tt3::nor3()), T1PortFn::OrN);
}

TEST(T1Cell, RejectsOtherFunctions) {
  EXPECT_FALSE(classify_t1_function(tt3::and3()).has_value());
  EXPECT_FALSE(classify_t1_function(tt3::xnor3()).has_value());  // S has no inverter port
  EXPECT_FALSE(classify_t1_function(TruthTable::from_hex(3, "d8")).has_value());  // ite
  EXPECT_FALSE(classify_t1_function(TruthTable::constant(3, true)).has_value());
}

TEST(T1Cell, RejectsDegenerateSupport) {
  // xor2 extended to 3 vars: a don't-care leaf would still pulse the loop.
  const auto xor2on3 = TruthTable::nth_var(3, 0) ^ TruthTable::nth_var(3, 1);
  EXPECT_FALSE(classify_t1_function(xor2on3).has_value());
  EXPECT_FALSE(classify_t1_function(TruthTable::nth_var(3, 2)).has_value());
}

TEST(T1Cell, RejectsWrongArity) {
  EXPECT_FALSE(classify_t1_function(TruthTable::nth_var(2, 0)).has_value());
  const auto xor4 = TruthTable::nth_var(4, 0) ^ TruthTable::nth_var(4, 1) ^
                    TruthTable::nth_var(4, 2) ^ TruthTable::nth_var(4, 3);
  EXPECT_FALSE(classify_t1_function(xor4).has_value());
}

TEST(T1Cell, LookupTableAgreesOnAllThreeVariableFunctions) {
  for (unsigned f = 0; f < 256; ++f) {
    TruthTable tt(3);
    tt.set_word(0, f);
    EXPECT_EQ(classify_t1_word(static_cast<uint8_t>(f)), classify_t1_function(tt))
        << "0x" << tt.to_hex();
  }
}

TEST(T1Cell, AreaOfFullAdderConfiguration) {
  const CellLibrary lib;
  // S + C: the paper's 29 JJ full adder.
  EXPECT_EQ(t1_area(lib, {T1PortFn::Sum, T1PortFn::Carry}), 29u);
}

TEST(T1Cell, InvertedPortsPayInverters) {
  const CellLibrary lib;
  EXPECT_EQ(t1_area(lib, {T1PortFn::Sum, T1PortFn::CarryN}), 29u + lib.jj_t1_inverter);
  EXPECT_EQ(t1_area(lib, {T1PortFn::CarryN, T1PortFn::OrN}), 29u + 2 * lib.jj_t1_inverter);
}

TEST(T1Cell, DuplicatePortsCountedOnce) {
  const CellLibrary lib;
  EXPECT_EQ(t1_area(lib, {T1PortFn::Sum, T1PortFn::Sum, T1PortFn::Carry}), 29u);
  EXPECT_EQ(t1_area(lib, {T1PortFn::OrN, T1PortFn::OrN}), 29u + lib.jj_t1_inverter);
}

}  // namespace
}  // namespace t1sfq
