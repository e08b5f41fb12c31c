// The paper's Table II: explicit vs implicit GEMM transformation times of
// every VGG-16 convolution layer at batch 128 on one core group. The one
// copy of the table: bench_conv_vgg prints it beside the model's numbers
// and tests/experiments_test.cpp holds every cell to a factor band.
#pragma once

#include <array>

namespace swcaffe::paper {

struct Table2Row {
  const char* name;  ///< layer name, "conv1_1"
  int ni, no, img;   ///< input channels, output channels, image side
  // Paper values in seconds (-1 = strategy unsupported, 0 = NA: the first
  // layer needs no input gradient).
  double fwd_imp, fwd_exp, wd_imp, wd_exp, id_imp, id_exp;
};

/// All 13 rows: first the nine distinct layer shapes, then the four layers
/// that repeat an earlier shape with their own measured times. Sorting by
/// name gives the paper's row order.
///
/// Keep this order. The ctest name of each `Table2CellTest` instance ends
/// in the row's raw bytes, the first of which is the address of its name
/// string, and the name strings are laid out in this order: inserting a
/// row before conv5_1 renames the instances after it.
constexpr std::array<Table2Row, 13> table2() {
  return {{
      {"conv1_1", 3, 64, 224, -1, 4.19, -1, 1.10, 0, 0},
      {"conv1_2", 64, 64, 224, 4.30, 7.79, -1, 5.22, -1, 14.97},
      {"conv2_1", 64, 128, 112, 1.63, 2.45, -1, 1.33, -1, 3.61},
      {"conv2_2", 128, 128, 112, 2.34, 3.14, 2.26, 2.25, 2.39, 6.11},
      {"conv3_1", 128, 256, 56, 1.06, 0.73, 0.92, 0.68, 0.95, 1.69},
      {"conv3_2", 256, 256, 56, 1.79, 1.14, 1.56, 1.29, 1.82, 3.05},
      {"conv4_1", 256, 512, 28, 0.84, 0.69, 0.70, 0.71, 0.85, 0.95},
      {"conv4_2", 512, 512, 28, 1.68, 1.33, 1.27, 1.33, 1.75, 1.89},
      {"conv5_1", 512, 512, 14, 0.40, 0.62, 0.31, 0.65, 0.43, 0.80},
      // Same shapes as conv3_2, conv4_2, conv5_1 and conv5_1.
      {"conv3_3", 256, 256, 56, 1.79, 1.14, 1.56, 1.27, 1.82, 3.03},
      {"conv4_3", 512, 512, 28, 1.68, 1.33, 1.27, 1.67, 1.75, 1.87},
      {"conv5_2", 512, 512, 14, 0.40, 0.63, 0.31, 0.78, 0.43, 0.84},
      {"conv5_3", 512, 512, 14, 0.40, 0.63, 0.31, 0.65, 0.43, 0.84},
  }};
}

}  // namespace swcaffe::paper
