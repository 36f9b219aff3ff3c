#include "nn/conv2d.hpp"

#include <cstring>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace vcdl {
namespace {

// Half-open range of output columns whose input column ix = ox + kx - pad
// lands inside [0, w). Everything left of it is zero padding, everything
// right of it too — so the interior is one contiguous run.
struct OxRange {
  std::size_t lo, hi;  // hi <= lo means the whole row is padding
};

OxRange valid_ox(std::size_t w, std::size_t ow, std::size_t kernel_x,
                 std::size_t pad) {
  const std::size_t lo = kernel_x >= pad ? 0 : pad - kernel_x;
  const std::ptrdiff_t hi_signed = static_cast<std::ptrdiff_t>(w + pad) -
                                   static_cast<std::ptrdiff_t>(kernel_x);
  const std::size_t hi =
      hi_signed <= 0
          ? 0
          : std::min(ow, static_cast<std::size_t>(hi_signed));
  return {lo, hi};
}

// Expands the padded input patch matrix: col[(c*k*k + ky*k + kx)][oy*OW + ox]
// = x[c][oy + ky - pad][ox + kx - pad] (0 outside). Per (ky, kx, oy) the
// interior columns are one contiguous memcpy bracketed by two padding
// memsets: pure copy layout, no arithmetic.
void im2col(const float* x, std::size_t channels, std::size_t h, std::size_t w,
            std::size_t kernel, std::size_t pad, std::size_t oh,
            std::size_t ow, float* col) {
  const std::size_t plane = h * w;
  const std::size_t out_plane = oh * ow;
  for (std::size_t c = 0; c < channels; ++c) {
    const float* xc = x + c * plane;
    for (std::size_t ky = 0; ky < kernel; ++ky) {
      for (std::size_t kx = 0; kx < kernel; ++kx) {
        float* row = col + ((c * kernel + ky) * kernel + kx) * out_plane;
        const OxRange r = valid_ox(w, ow, kx, pad);
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                    static_cast<std::ptrdiff_t>(pad);
          float* out_row = row + oy * ow;
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) {
            std::memset(out_row, 0, ow * sizeof(float));
            continue;
          }
          const float* x_row = xc + static_cast<std::size_t>(iy) * w;
          if (r.lo > 0) std::memset(out_row, 0, r.lo * sizeof(float));
          if (r.hi > r.lo) {
            std::memcpy(out_row + r.lo, x_row + (r.lo + kx - pad),
                        (r.hi - r.lo) * sizeof(float));
          }
          if (ow > r.hi) {
            std::memset(out_row + std::max(r.lo, r.hi), 0,
                        (ow - std::max(r.lo, r.hi)) * sizeof(float));
          }
        }
      }
    }
  }
}

// Scatter-adds the column matrix back into image layout (inverse of im2col
// with accumulation at overlapping positions). The valid columns of a row
// form one contiguous run, added left to right.
void col2im(const float* col, std::size_t channels, std::size_t h, std::size_t w,
            std::size_t kernel, std::size_t pad, std::size_t oh,
            std::size_t ow, float* x) {
  const std::size_t plane = h * w;
  const std::size_t out_plane = oh * ow;
  for (std::size_t c = 0; c < channels; ++c) {
    float* xc = x + c * plane;
    for (std::size_t ky = 0; ky < kernel; ++ky) {
      for (std::size_t kx = 0; kx < kernel; ++kx) {
        const float* row = col + ((c * kernel + ky) * kernel + kx) * out_plane;
        const OxRange r = valid_ox(w, ow, kx, pad);
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                    static_cast<std::ptrdiff_t>(pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
          float* dst =
              xc + static_cast<std::size_t>(iy) * w + (r.lo + kx - pad);
          const float* col_row = row + oy * ow;
          for (std::size_t ox = r.lo; ox < r.hi; ++ox) {
            *dst++ += col_row[ox];
          }
        }
      }
    }
  }
}

// Runs body(chunk, lo, hi) over [0, n), split across the pool, or as the one
// chunk (0, 0, n) when there is none. A nested call also runs as that one
// chunk, so what a body writes must follow from [lo, hi), never from `chunk`.
void for_each_chunk(
    ThreadPool* pool, std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (pool == nullptr) {
    body(0, 0, n);
  } else {
    pool->parallel_for_indexed(0, n, body);
  }
}

}  // namespace

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t pad, Init scheme, Rng& rng)
    : in_c_(in_channels), out_c_(out_channels), kernel_(kernel), pad_(pad),
      scheme_(scheme),
      w_(Shape{out_channels, in_channels * kernel * kernel}),
      b_(Shape{out_channels}),
      dw_(Shape{out_channels, in_channels * kernel * kernel}),
      db_(Shape{out_channels}) {
  VCDL_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0,
             "Conv2D: bad hyperparameters");
  const std::size_t fan_in = in_channels * kernel * kernel;
  const std::size_t fan_out = out_channels * kernel * kernel;
  initialize(w_, scheme, fan_in, fan_out, rng);
}

Conv2D::Conv2D(const Conv2D& other)
    : in_c_(other.in_c_), out_c_(other.out_c_), kernel_(other.kernel_),
      pad_(other.pad_), scheme_(other.scheme_),
      w_(other.w_), b_(other.b_), dw_(other.dw_), db_(other.db_) {}

Tensor Conv2D::forward(const Tensor& x, ExecContext& ctx, bool training) {
  VCDL_CHECK(x.shape().rank() == 4 && x.shape()[1] == in_c_,
             "Conv2D::forward: expected [batch, " + std::to_string(in_c_) +
                 ", H, W], got " + x.shape().to_string());
  const std::size_t batch = x.shape()[0];
  const std::size_t h = x.shape()[2], w = x.shape()[3];
  VCDL_CHECK(h + 2 * pad_ >= kernel_ && w + 2 * pad_ >= kernel_,
             "Conv2D: kernel larger than padded input");
  const std::size_t oh = out_height(h), ow = out_width(w);
  const std::size_t col_rows = in_c_ * kernel_ * kernel_;
  const std::size_t out_plane = oh * ow;

  if (training) {
    last_h_ = h;
    last_w_ = w;
    last_batch_ = batch;
    // Resize the cached per-item buffers in place: their allocations survive
    // across steps once the batch geometry stabilizes, where assign() would
    // rebuild `batch` fresh tensors every call.
    cols_.resize(batch);
    for (Tensor& c : cols_) c.resize(Shape{col_rows, out_plane});
  } else {
    // Inference pass: no backward will follow, so drop any stale cache and
    // invalidate the bookkeeping backward() checks.
    cols_.clear();
    cols_.shrink_to_fit();
    last_batch_ = 0;
  }

  Tensor y(Shape{batch, out_c_, oh, ow});
  const std::size_t chunks =
      ctx.pool == nullptr ? 1 : ctx.pool->max_chunks(batch);
  // Borrow all per-chunk scratch before fanning out — the arena is not
  // thread-safe, but the borrowed tensors have stable addresses.
  std::vector<Tensor*> y_mats(chunks);
  std::vector<Tensor*> eval_cols(chunks, nullptr);
  for (std::size_t c = 0; c < chunks; ++c) {
    y_mats[c] = &ctx.arena.get(c, Shape{out_c_, out_plane});
    if (!training) {
      eval_cols[c] = &ctx.arena.get(chunks + c, Shape{col_rows, out_plane});
    }
  }

  // Each item writes a disjoint slice of y, so any split of the batch is
  // bit-identical to the serial loop.
  for_each_chunk(ctx.pool, batch, [&](std::size_t chunk, std::size_t lo,
                                      std::size_t hi) {
    Tensor& y_mat = *y_mats[chunk];
    for (std::size_t bi = lo; bi < hi; ++bi) {
      Tensor& col = training ? cols_[bi] : *eval_cols[chunk];
      im2col(x.data() + bi * in_c_ * h * w, in_c_, h, w, kernel_, pad_, oh,
             ow, col.data());
      ops::matmul(w_, col, y_mat);
      float* y_b = y.data() + bi * out_c_ * out_plane;
      const float* ym = y_mat.data();
      for (std::size_t oc = 0; oc < out_c_; ++oc) {
        const float bias = b_[oc];
        for (std::size_t p = 0; p < out_plane; ++p) {
          y_b[oc * out_plane + p] = ym[oc * out_plane + p] + bias;
        }
      }
    }
  });
  return y;
}

Tensor Conv2D::backward(const Tensor& grad_out, ExecContext& ctx) {
  Tensor dx;
  backward_into(grad_out, ctx, &dx);
  return dx;
}

void Conv2D::backward_params(const Tensor& grad_out, ExecContext& ctx) {
  backward_into(grad_out, ctx, nullptr);
}

void Conv2D::backward_into(const Tensor& grad_out, ExecContext& ctx,
                           Tensor* dx) {
  VCDL_CHECK(last_batch_ > 0, "Conv2D::backward before training-mode forward");
  const std::size_t oh = out_height(last_h_), ow = out_width(last_w_);
  VCDL_CHECK((grad_out.shape() == Shape{last_batch_, out_c_, oh, ow}),
             "Conv2D::backward: gradient shape mismatch");
  VCDL_CHECK(cols_.size() == last_batch_,
             "Conv2D::backward: im2col cache missing");
  const std::size_t batch = last_batch_;
  const std::size_t out_plane = oh * ow;
  const std::size_t col_rows = in_c_ * kernel_ * kernel_;

  if (dx != nullptr) *dx = Tensor(Shape{batch, in_c_, last_h_, last_w_});
  // Item bi's dY, viewed in place — no copy.
  const auto dy = [&](std::size_t bi) {
    return ops::MatView{grad_out.data() + bi * out_c_ * out_plane, out_c_,
                        out_plane};
  };

  const std::size_t chunks =
      ctx.pool == nullptr ? 1 : ctx.pool->max_chunks(batch);
  // Borrow all per-chunk scratch before fanning out. A dW block is sized for
  // every column, which is what a chunk covering the whole batch needs.
  std::vector<Tensor*> dcols(chunks), dw_blocks(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    if (dx != nullptr) {
      dcols[c] = &ctx.arena.get(c, Shape{col_rows, out_plane});
    }
    dw_blocks[c] = &ctx.arena.get(chunks + c, dw_.shape());
  }

  // The chunk owning items [lo, hi) writes their dX slices (when dx is
  // wanted), the dW columns [lo·n/B, hi·n/B) and the db channels
  // [lo·out_c/B, hi·out_c/B), where n = in_c·k·k and B is the batch. Each dW
  // and db element is summed whole over the batch in item order, as the
  // serial loop sums it, so every split gives the serial bits.
  for_each_chunk(ctx.pool, batch, [&](std::size_t chunk, std::size_t lo,
                                      std::size_t hi) {
    if (dx != nullptr) {
      Tensor& dcol = *dcols[chunk];
      for (std::size_t bi = lo; bi < hi; ++bi) {
        ops::matmul_at_b(ops::view(w_), dy(bi), dcol);
        col2im(dcol.data(), in_c_, last_h_, last_w_, kernel_, pad_, oh, ow,
               dx->data() + bi * in_c_ * last_h_ * last_w_);
      }
    }

    // dW[:, j0:j0+nj] += dY_b · cols_b[j0:j0+nj]^T, accumulated in a dense
    // block seeded from dW and copied back.
    const std::size_t j0 = lo * col_rows / batch;
    const std::size_t nj = hi * col_rows / batch - j0;
    Tensor& block = *dw_blocks[chunk];
    block.resize(Shape{out_c_, nj});
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      std::copy_n(dw_.data() + oc * col_rows + j0, nj, block.data() + oc * nj);
    }
    for (std::size_t bi = 0; bi < batch; ++bi) {
      const ops::MatView col_block{cols_[bi].data() + j0 * out_plane, nj,
                                   out_plane};
      ops::matmul_a_bt(dy(bi), col_block, block, /*accumulate=*/true);
    }
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      std::copy_n(block.data() + oc * nj, nj, dw_.data() + oc * col_rows + j0);
    }

    for (std::size_t oc = lo * out_c_ / batch; oc < hi * out_c_ / batch;
         ++oc) {
      for (std::size_t bi = 0; bi < batch; ++bi) {
        db_[oc] += ops::sum(std::span<const float>(
            dy(bi).data + oc * out_plane, out_plane));
      }
    }
  });
}

std::size_t Conv2D::cache_bytes() const {
  std::size_t n = 0;
  for (const Tensor& c : cols_) n += c.numel();
  return n * sizeof(float);
}

void Conv2D::write_spec(BinaryWriter& w) const {
  w.write_varint(in_c_);
  w.write_varint(out_c_);
  w.write_varint(kernel_);
  w.write_varint(1);  // stride: the architecture format keeps the field
  w.write_varint(pad_);
  w.write_string(init_name(scheme_));
}

std::unique_ptr<Layer> Conv2D::clone() const {
  return std::make_unique<Conv2D>(*this);
}

}  // namespace vcdl
