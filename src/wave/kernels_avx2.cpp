// AVX2 (W=4) instantiations of the lane kernel bodies.  This is the
// only TU compiled with -mavx2 (see CMakeLists.txt); it must stay
// free of code that could run on non-AVX2 CPUs — everything here is
// reached exclusively through the active_lane_width() == 4 dispatch in
// kernels.cpp.  Built without -mfma and with -ffp-contract=off, so per
// lane every op is the scalar IEEE operation and results are bitwise
// identical to the W=1 oracle.
#if defined(__AVX2__)

#include "wave/kernels_lanes.hpp"

namespace waveletic::wave::detail {

void sample_core_w4(const double* t, const double* v, size_t n,
                    const double* ts, double* out, size_t m) {
  sample_core<4>(t, v, n, ts, out, m);
}

void sample_times_core_w4(double t0, double dt, double* out, size_t n) {
  sample_times_core<4>(t0, dt, out, n);
}

void axpby_core_w4(double ca, const double* va, double cb, const double* vb,
                   double* out, size_t g) {
  axpby_core<4>(ca, va, cb, vb, out, g);
}

void flip_core_w4(double v_ref, const double* v, double* out, size_t n) {
  flip_core<4>(v_ref, v, out, n);
}

void scan_crossings_w4(WaveView w, double level, bool (*emit)(void*, double),
                       void* ctx) {
  scan_crossings_core<4>(w, level, [&](double x) { return emit(ctx, x); });
}

}  // namespace waveletic::wave::detail

#endif  // __AVX2__
