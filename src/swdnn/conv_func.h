// Functional convolution in both of swCaffe's plans.
//
// The explicit plan is im2col + GEMM (original Caffe, Sec. IV-B1); the
// implicit plan computes the same convolution with direct blocked loops (the
// swDNN kernel of Sec. IV-B2 — on real hardware it runs in the (R,C,N,B)
// layout). For finite weights the two forwards are bit-identical: each
// output sums its (c, kh, kw) products in ascending order from +0, both skip
// zero weights, and the explicit path's padded columns only add ±0 to a sum
// that cannot be -0. The conv layer therefore runs the faster explicit
// kernel for every plan; the tuner's choice only prices the simulated chip,
// and the direct loops stay as the reference the tests compare against.
#pragma once

#include "core/layer_desc.h"

namespace swcaffe::dnn {

/// top(b,no,oh,ow) = sum over ni,kh,kw of bottom * weight + bias.
/// `col_buf` must hold in_c*K*K*out_h*out_w floats (one image's columns);
/// pass nullptr to use a thread-local scratch buffer.
void conv_forward_explicit(const core::ConvGeom& g, const float* bottom,
                           const float* weight, const float* bias, float* top,
                           float* col_buf = nullptr);

/// Direct-loop forward; same contract, no column buffer.
void conv_forward_implicit(const core::ConvGeom& g, const float* bottom,
                           const float* weight, const float* bias, float* top);

/// weight_diff += d(top)/d(weight); bias_diff += per-channel sums (may be
/// null when the layer has no bias).
void conv_backward_weight(const core::ConvGeom& g, const float* bottom,
                          const float* top_diff, float* weight_diff,
                          float* bias_diff, float* col_buf = nullptr);

/// bottom_diff = d(top)/d(bottom) (overwritten, not accumulated).
void conv_backward_input(const core::ConvGeom& g, const float* weight,
                         const float* top_diff, float* bottom_diff,
                         float* col_buf = nullptr);

}  // namespace swcaffe::dnn
