/**
 * @file
 * Trapezoidal transient engine implementation: the state-space
 * realization, its stability guard and the block stepper over it.
 */

#include "circuit/transient.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "util/error.h"
#include "util/hotpath.h"
#include "util/metrics.h"

namespace emstress {
namespace circuit {

namespace {

using Real = long double;
using RealMatrix = Matrix<Real>;

/**
 * Column-by-column (axpy-order) dense mat-vec: out = m · z with m
 * column-major rows x cols, cols a multiple of 4. Four columns per
 * sweep, each output element summed strictly left-to-right within a
 * sweep — one fixed association shared by every caller. Cloned per
 * ISA width (lanes are independent rows; see util/hotpath.h).
 */
EMSTRESS_TARGET_CLONES void
matVecAxpy(const double *__restrict m, const double *__restrict z,
           double *__restrict out, std::size_t rows, std::size_t cols)
{
    for (std::size_t r = 0; r < rows; ++r)
        out[r] = 0.0;
    for (std::size_t c = 0; c < cols; c += 4) {
        const double v0 = z[c];
        const double v1 = z[c + 1];
        const double v2 = z[c + 2];
        const double v3 = z[c + 3];
        const double *__restrict m0 = m + c * rows;
        const double *__restrict m1 = m0 + rows;
        const double *__restrict m2 = m1 + rows;
        const double *__restrict m3 = m2 + rows;
        for (std::size_t r = 0; r < rows; ++r)
            out[r] = ((out[r] + m0[r] * v0) + m1[r] * v1)
                + (m2[r] * v2 + m3[r] * v3);
    }
}

/** Dense matrix product. */
template <typename T>
Matrix<T>
multiply(const Matrix<T> &a, const Matrix<T> &b)
{
    Matrix<T> out(a.rows(), b.cols());
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t i = 0; i < a.cols(); ++i) {
            const T ari = a(r, i);
            for (std::size_t c = 0; c < b.cols(); ++c)
                out(r, c) += ari * b(i, c);
        }
    return out;
}

/** Frobenius norm. */
double
frobenius(const Matrix<double> &a)
{
    double sum = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            sum += a(r, c) * a(r, c);
    return std::sqrt(sum);
}

/**
 * One storage element as a row of the state map z = P·x over the MNA
 * unknowns, with its storage value e (C = Pᵀ·diag(e)·P): a
 * capacitor's terminal voltage difference (e = C), an inductor's
 * branch current (e = -L, the MNA branch row's sign).
 */
struct Storage
{
    std::vector<std::pair<std::size_t, Real>> incidence;
    Real e;
};

std::vector<Storage>
storageElements(const Netlist &netlist, const MnaSystem &mna)
{
    std::vector<Storage> out;
    for (const Element &el : netlist.elements()) {
        if (el.kind == ElementKind::Capacitor) {
            Storage s{{}, static_cast<Real>(el.value)};
            if (el.node_pos != kGround)
                s.incidence.emplace_back(
                    mna.stateIndexOfNode(el.node_pos), 1.0L);
            if (el.node_neg != kGround)
                s.incidence.emplace_back(
                    mna.stateIndexOfNode(el.node_neg), -1.0L);
            out.push_back(std::move(s));
        } else if (el.kind == ElementKind::Inductor) {
            out.push_back({{{mna.stateIndexOfBranch(el.name), 1.0L}},
                           -static_cast<Real>(el.value)});
        }
    }
    return out;
}

/**
 * Orthonormal basis, as matrix columns, of the left null space of
 * `a` (the vectors v with vᵀ·a = 0): the columns of Q past a's
 * numerical rank in a Householder QR with column pivoting,
 * a·Π = Q·R. A column whose remaining norm is below 1e-12 of the
 * largest column norm counts as dependent. Run in double on the
 * network matrix, whose null vectors are structural (loops and
 * cutsets), so the extra bits of long double buy nothing there.
 */
template <typename T>
Matrix<T>
leftNullSpace(Matrix<T> a)
{
    const std::size_t rows = a.rows();
    const std::size_t cols = a.cols();
    const auto tail_norm = [&a, rows](std::size_t from, std::size_t c) {
        T sum = 0;
        for (std::size_t r = from; r < rows; ++r)
            sum += a(r, c) * a(r, c);
        return std::sqrt(sum);
    };
    T tol = 0;
    for (std::size_t c = 0; c < cols; ++c)
        tol = std::max(tol, tail_norm(0, c));
    tol *= T(1e-12);
    // Reflectors H_k = I - 2·v_k·v_kᵀ/(v_kᵀ·v_k), v_k zero above k.
    std::vector<std::vector<T>> reflectors;
    for (std::size_t k = 0; k < std::min(rows, cols); ++k) {
        std::size_t pivot = k;
        T norm = tail_norm(k, k);
        for (std::size_t c = k + 1; c < cols; ++c)
            if (const T nc = tail_norm(k, c); nc > norm) {
                norm = nc;
                pivot = c;
            }
        if (norm <= tol)
            break;
        for (std::size_t r = 0; r < rows; ++r)
            std::swap(a(r, k), a(r, pivot));
        // H_k takes a's column k below row k to -sign(a_kk)·norm·e_k.
        std::vector<T> v(rows, T(0));
        for (std::size_t r = k; r < rows; ++r)
            v[r] = a(r, k);
        v[k] += a(k, k) < 0 ? -norm : norm;
        T vv = 0;
        for (std::size_t r = k; r < rows; ++r)
            vv += v[r] * v[r];
        for (std::size_t c = k; c < cols; ++c) {
            T dot = 0;
            for (std::size_t r = k; r < rows; ++r)
                dot += v[r] * a(r, c);
            const T f = 2 * dot / vv;
            for (std::size_t r = k; r < rows; ++r)
                a(r, c) -= f * v[r];
        }
        for (std::size_t r = k; r < rows; ++r)
            v[r] *= std::sqrt(2 / vv);
        reflectors.push_back(std::move(v));
    }
    // Q's trailing columns: H_1·…·H_rank applied to e_rank..e_rows.
    const std::size_t rank = reflectors.size();
    Matrix<T> out(rows, rows - rank);
    for (std::size_t c = 0; c < rows - rank; ++c)
        out(rank + c, c) = 1;
    for (std::size_t k = rank; k-- > 0;) {
        const std::vector<T> &v = reflectors[k];
        for (std::size_t c = 0; c < rows - rank; ++c) {
            T dot = 0;
            for (std::size_t r = k; r < rows; ++r)
                dot += v[r] * out(r, c);
            for (std::size_t r = k; r < rows; ++r)
                out(r, c) -= dot * v[r];
        }
    }
    return out;
}

/** Copy a long-double matrix into a column-major double table. */
void
storeColumnMajor(const RealMatrix &a, std::size_t rows_pad,
                 double *out)
{
    for (std::size_t c = 0; c < a.cols(); ++c)
        for (std::size_t r = 0; r < a.rows(); ++r)
            out[c * rows_pad + r] = static_cast<double>(a(r, c));
}

/** Columns of `b` solved against a factored matrix. */
RealMatrix
solveColumns(const LuSolver<Real> &lu, const RealMatrix &b)
{
    RealMatrix out(b.rows(), b.cols());
    std::vector<Real> col(b.rows()), sol;
    for (std::size_t c = 0; c < b.cols(); ++c) {
        for (std::size_t r = 0; r < b.rows(); ++r)
            col[r] = b(r, c);
        lu.solveInto(col, sol);
        for (std::size_t r = 0; r < b.rows(); ++r)
            out(r, c) = sol[r];
    }
    return out;
}

/**
 * Continuous realization of a netlist on its independent storage
 * state ξ (energy coordinates), with its MNA unknowns as outputs:
 *   ξ' = A·ξ + B·u + b,  x = X·ξ + Y·u + X_d·u' + x_c.
 * X_d is nonzero only where a current source drives an inductor
 * cutset: u' then sets the cutset's node potentials, and with them
 * the voltages across its inductors. It never reaches ξ', because
 * those voltages move the inductors' energy coordinates along the
 * constraint direction, which the free states are orthogonal to.
 */
struct Continuous
{
    RealMatrix a{0, 0}, b{0, 0};
    RealMatrix x_of_xi{0, 0}, x_of_u{0, 0}, x_of_dot{0, 0};
    std::vector<Real> b_const, x_const;
    bool driven = false;
};

Continuous
continuousRealization(const Netlist &netlist, const MnaSystem &mna)
{
    const std::size_t n = mna.size();
    const std::size_t n_src = mna.currentSourceNames().size();
    const std::vector<Storage> storage = storageElements(netlist, mna);
    const std::size_t n_store = storage.size();

    // Source images: the injections e_j = s_j - s_vs are exact (they
    // land on node rows, which carry no voltage-source entries) and
    // the supply s_vs, as right-hand sides over the MNA rows.
    std::vector<double> src_vals(n_src, 0.0);
    const std::vector<double> s_vs = mna.sourceVector(src_vals);
    RealMatrix sources(n, n_src + 1);
    for (std::size_t j = 0; j < n_src; ++j) {
        src_vals[j] = 1.0;
        const std::vector<double> s_j = mna.sourceVector(src_vals);
        src_vals[j] = 0.0;
        for (std::size_t r = 0; r < n; ++r)
            sources(r, j) = static_cast<Real>(s_j[r] - s_vs[r]);
    }
    for (std::size_t r = 0; r < n; ++r)
        sources(r, n_src) = static_cast<Real>(s_vs[r]);

    // Storage constraints. With the storage state z = P·x and the
    // storage elements' currents and voltages q = E·z' as extra
    // unknowns, MNA's C·x' + G·x = s is the resistive network with
    // each capacitor a voltage source and each inductor a current
    // source: K·[x; q] = [s; z], K = [G Pᵀ; P 0]. A capacitor loop or
    // an inductor cutset (the PDN's series decap branches make one
    // around each package node) makes K singular: each left null
    // vector [α; β] is a constraint βᵀ·z = -αᵀ·s the states meet.
    Matrix<double> kfull(n + n_store, n + n_store);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            kfull(r, c) = mna.g()(r, c);
    for (std::size_t j = 0; j < n_store; ++j)
        for (const auto &[row, sign] : storage[j].incidence) {
            kfull(row, n + j) = static_cast<double>(sign);
            kfull(n + j, row) = static_cast<double>(sign);
        }
    const Matrix<double> left_null = leftNullSpace(std::move(kfull));
    const std::size_t n_con = left_null.cols();
    Continuous out;

    // Energy coordinates z̃ = S·z, S = diag(√|e|); in them the
    // constraints are Fᵀ·z̃ = Γ·u (+ supply), F = S⁻¹·β. The state ξ
    // lives on an orthonormal basis Q of F's orthogonal complement,
    // so the stored energy of the free part is ½‖ξ‖². An input that
    // drives a constraint moves z̃ by Z·u, Z = F·(FᵀF)⁻¹·Γ.
    std::vector<Real> scale(n_store);
    for (std::size_t j = 0; j < n_store; ++j)
        scale[j] = std::sqrt(std::abs(storage[j].e));
    RealMatrix f(n_store, n_con), gam(n_con, n_src);
    for (std::size_t c = 0; c < n_con; ++c) {
        for (std::size_t j = 0; j < n_store; ++j)
            f(j, c) = left_null(n + j, c) / scale[j];
        // The null vector has unit norm and the injections ±1
        // entries: a source either drives a constraint at order one
        // or not at all, up to rounding.
        for (std::size_t j = 0; j < n_src; ++j) {
            Real drive = 0.0L;
            for (std::size_t r = 0; r < n; ++r)
                drive -= left_null(r, c) * sources(r, j);
            if (std::abs(drive) > 1e-9L) {
                gam(c, j) = drive;
                out.driven = true;
            }
        }
    }
    const RealMatrix basis = leftNullSpace(f);
    const std::size_t nx = basis.cols();
    RealMatrix drive_z(n_store, n_src);
    if (out.driven) {
        RealMatrix ftf(n_con, n_con);
        for (std::size_t r = 0; r < n_con; ++r)
            for (std::size_t c = 0; c < n_con; ++c)
                for (std::size_t j = 0; j < n_store; ++j)
                    ftf(r, c) += f(j, r) * f(j, c);
        drive_z = multiply(f, solveColumns(LuSolver<Real>(std::move(ftf)),
                                           gam));
    }

    // The reduced square system
    //   G·x + Pᵀ·D·S·Q·ξ' = s - Pᵀ·D·S·Z·u',   Qᵀ·S·P·x = ξ
    // (q = E·z' = D·S·(Q·ξ' + Z·u') with D = sign(e); KCL then holds
    // the constrained part of z̃ at Z·u by itself), solved for each
    // state, each source, each source's rate and the supply.
    RealMatrix kred(n + nx, n + nx);
    RealMatrix rates(n, n_src);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            kred(r, c) = static_cast<Real>(mna.g()(r, c));
    for (std::size_t j = 0; j < n_store; ++j) {
        const Real sq = storage[j].e < 0.0L ? -scale[j] : scale[j];
        for (const auto &[row, sign] : storage[j].incidence) {
            for (std::size_t c = 0; c < nx; ++c) {
                kred(row, n + c) += sign * sq * basis(j, c);
                kred(n + c, row) += sign * scale[j] * basis(j, c);
            }
            for (std::size_t s = 0; s < n_src; ++s)
                rates(row, s) -= sign * sq * drive_z(j, s);
        }
    }
    const LuSolver<Real> kred_lu(std::move(kred));
    RealMatrix rhs(n + nx, nx + 2 * n_src + 1);
    for (std::size_t c = 0; c < nx; ++c)
        rhs(n + c, c) = 1.0L;
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t s = 0; s < n_src; ++s) {
            rhs(r, nx + s) = sources(r, s);
            rhs(r, nx + n_src + s) = rates(r, s);
        }
        rhs(r, nx + 2 * n_src) = sources(r, n_src);
    }
    const RealMatrix sol = solveColumns(kred_lu, rhs);
    const auto block = [&sol](std::size_t row0, std::size_t rows,
                                 std::size_t col0, std::size_t cols) {
        RealMatrix part(rows, cols);
        for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t c = 0; c < cols; ++c)
                part(r, c) = sol(row0 + r, col0 + c);
        return part;
    };
    out.x_of_xi = block(0, n, 0, nx);
    out.a = block(n, nx, 0, nx);
    out.x_of_u = block(0, n, nx, n_src);
    out.b = block(n, nx, nx, n_src);
    out.x_of_dot = block(0, n, nx + n_src, n_src);
    const std::size_t one = nx + 2 * n_src;
    for (std::size_t r = 0; r < n; ++r)
        out.x_const.push_back(sol(r, one));
    for (std::size_t r = 0; r < nx; ++r)
        out.b_const.push_back(sol(n + r, one));
    return out;
}

} // namespace

TransientAnalysis::TransientAnalysis(const Netlist &netlist, double dt)
    : dt_(dt), mna_(netlist)
{
    requireConfig(dt > 0.0, "transient dt must be positive");
    constexpr std::size_t k = kStreamBlock;
    const std::size_t n = mna_.size();
    n_src_ = mna_.currentSourceNames().size();
    const Continuous cont = continuousRealization(netlist, mna_);
    const std::size_t nx = cont.a.rows();
    // A derivative estimate per source, only when some source drives
    // a state.
    const std::size_t nd = cont.driven ? n_src_ : 0;
    ns_ = nx + nd;
    rp_ = (ns_ + 3) & ~std::size_t{3};

    // Trapezoidal step on ξ with L = I - hA/2, R = I + hA/2:
    //   L·ξ_{t+1} = R·ξ_t + (h/2)·B·(u_t + u_{t+1}) + h·b.
    // Then ζ = ξ - N·u with N = (h/2)·L⁻¹·B moves the new input out
    // of the update: ζ_{t+1} = M·ζ_t + G·u_t + c, M = L⁻¹·R,
    // G = (M + I)·N.
    const Real h = static_cast<Real>(dt_);
    RealMatrix lhs(nx, nx), rhs_mult(nx, nx), half_b(nx, n_src_);
    for (std::size_t r = 0; r < nx; ++r) {
        for (std::size_t c = 0; c < nx; ++c) {
            const Real eye = r == c ? 1.0L : 0.0L;
            lhs(r, c) = eye - 0.5L * h * cont.a(r, c);
            rhs_mult(r, c) = eye + 0.5L * h * cont.a(r, c);
        }
        for (std::size_t j = 0; j < n_src_; ++j)
            half_b(r, j) = 0.5L * h * cont.b(r, j);
    }
    const LuSolver<Real> lhs_lu(std::move(lhs));
    const LuSolver<Real> a_lu(RealMatrix(cont.a));
    const RealMatrix m = solveColumns(lhs_lu, rhs_mult);
    const RealMatrix n_in = solveColumns(lhs_lu, half_b);
    const RealMatrix m_n = multiply(m, n_in);

    // The stored state σ = [ζ - ζ* | δ]: ζ measured from its
    // zero-input equilibrium ζ* = -A⁻¹·b, and the derivative
    // estimates d as δ = d - (2/h)·u, so that d_{t+1} + d_t =
    // (2/h)·(u_{t+1} - u_t) becomes δ_{t+1} = -δ_t - (4/h)·u_t.
    // Outputs: x = y0 + C·σ + D·u with y0 = x_c + X·ζ*,
    // C = [X | X_d], D = X·N + Y + (2/h)·X_d.
    RealMatrix mf(ns_, ns_), gf(ns_, n_src_), kf(ns_, n_src_),
        cf(n, ns_), df(n, n_src_);
    const RealMatrix a_inv_b = solveColumns(a_lu, cont.b);
    for (std::size_t r = 0; r < nx; ++r) {
        for (std::size_t c = 0; c < nx; ++c)
            mf(r, c) = m(r, c);
        for (std::size_t j = 0; j < n_src_; ++j) {
            gf(r, j) = m_n(r, j) + n_in(r, j);
            // The DC point under a unit input, the step's fixed
            // point: ξ = -A⁻¹·B·u, so ζ - ζ* = -(A⁻¹·B + N)·u.
            kf(r, j) = -a_inv_b(r, j) - n_in(r, j);
        }
    }
    for (std::size_t j = 0; j < nd; ++j) {
        mf(nx + j, nx + j) = -1.0L;
        gf(nx + j, j) = -4.0L / h;
        kf(nx + j, j) = -2.0L / h;
    }
    const RealMatrix x_n = multiply(cont.x_of_xi, n_in);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t c = 0; c < nx; ++c)
            cf(i, c) = cont.x_of_xi(i, c);
        for (std::size_t j = 0; j < n_src_; ++j) {
            df(i, j) = x_n(i, j) + cont.x_of_u(i, j);
            if (nd > 0) {
                cf(i, nx + j) = cont.x_of_dot(i, j);
                df(i, j) += 2.0L / h * cont.x_of_dot(i, j);
            }
        }
    }
    std::vector<Real> zeta_star;
    a_lu.solveInto(cont.b_const, zeta_star);
    y0_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        Real acc = cont.x_const[i];
        for (std::size_t r = 0; r < nx; ++r)
            acc -= cont.x_of_xi(i, r) * zeta_star[r];
        y0_[i] = static_cast<double>(acc);
    }

    // Powers M^0..M^k and the tables built from them.
    std::vector<RealMatrix> mpow;
    mpow.emplace_back(ns_, ns_);
    for (std::size_t r = 0; r < ns_; ++r)
        mpow[0](r, r) = 1.0L;
    for (std::size_t j = 1; j <= k; ++j)
        mpow.push_back(multiply(mf, mpow[j - 1]));
    m1_.assign(rp_ * rp_, 0.0);
    mk_.assign(rp_ * rp_, 0.0);
    g1_.assign(rp_ * n_src_, 0.0);
    kbias_.assign(rp_ * n_src_, 0.0);
    gam_.assign(rp_ * k * n_src_, 0.0);
    storeColumnMajor(mpow[1], rp_, m1_.data());
    storeColumnMajor(mpow[k], rp_, mk_.data());
    storeColumnMajor(gf, rp_, g1_.data());
    storeColumnMajor(kf, rp_, kbias_.data());
    for (std::size_t step = 0; step < k; ++step)
        storeColumnMajor(multiply(mpow[k - 1 - step], gf), rp_,
                         gam_.data() + step * n_src_ * rp_);

    // Output tables: each entry is one short product, formed in
    // double from the rounded factors like the tables it feeds.
    const auto rounded = [](const RealMatrix &x) {
        Matrix<double> out(x.rows(), x.cols());
        for (std::size_t r = 0; r < x.rows(); ++r)
            for (std::size_t c = 0; c < x.cols(); ++c)
                out(r, c) = static_cast<double>(x(r, c));
        return out;
    };
    const Matrix<double> c_d = rounded(cf);
    const Matrix<double> g_d = rounded(gf);
    crow_.assign(k * n * rp_, 0.0);
    hrow_.assign(k * n * n_src_, 0.0);
    Matrix<double> cm(n, ns_);
    for (std::size_t j = 0; j < k; ++j) {
        // H_0 = D; H_j = C·M^{j-1}·G from the previous C·M^{j-1}.
        const Matrix<double> h_j =
            j == 0 ? rounded(df) : multiply(cm, g_d);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t s = 0; s < n_src_; ++s)
                hrow_[(j * n + i) * n_src_ + s] = h_j(i, s);
        cm = multiply(c_d, rounded(mpow[j]));
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t r = 0; r < ns_; ++r)
                crow_[(j * n + i) * rp_ + r] = cm(i, r);
    }

    checkStable();
    metrics::Registry::instance().add(
        "circuit.transient.factorizations");
}

void
TransientAnalysis::checkStable() const
{
    // Both stored updates: the block M^k that open-loop streams
    // apply, and the single step M of closed-loop steppers and
    // stream tails.
    for (const auto &[table, steps] :
         {std::pair{&mk_, kStreamBlock}, std::pair{&m1_, std::size_t{1}}}) {
        Matrix<double> p(ns_, ns_);
        for (std::size_t c = 0; c < ns_; ++c)
            for (std::size_t r = 0; r < ns_; ++r)
                p(r, c) = (*table)[c * rp_ + r];
        double norm = frobenius(p);
        for (std::size_t horizon = steps;
             horizon < kStableHorizonSteps; horizon *= 2) {
            p = multiply(p, p);
            const double next = frobenius(p);
            // Rounding in the stored table and in the squaring can
            // lift a lossless mode by ~1e-15 per step, far inside
            // this slack.
            requireConfig(std::isfinite(next)
                              && next <= norm * (1.0 + 1e-9),
                          "transient update grows within "
                              + std::to_string(kStableHorizonSteps)
                              + " steps (active or unstable netlist)");
            norm = next;
        }
    }
}

void
TransientAnalysis::step(const double *sigma, const double *u,
                        double *next) const
{
    matVecAxpy(m1_.data(), sigma, next, rp_, rp_);
    for (std::size_t s = 0; s < n_src_; ++s) {
        const double coef = u[s];
        const double *__restrict col = g1_.data() + s * rp_;
        double *__restrict out = next;
        for (std::size_t r = 0; r < rp_; ++r)
            out[r] += col[r] * coef;
    }
}

double
TransientAnalysis::output(std::size_t row, const double *sigma,
                          const double *u) const
{
    const double *c = crow_.data() + row * rp_;
    const double *d = hrow_.data() + row * n_src_;
    double acc = 0.0;
    for (std::size_t r = 0; r < rp_; ++r)
        acc += c[r] * sigma[r];
    for (std::size_t s = 0; s < n_src_; ++s)
        acc += d[s] * u[s];
    return y0_[row] + acc;
}

std::span<const double>
TransientAnalysis::biasOrDc(std::span<const double> bias) const
{
    return bias.empty()
        ? std::span<const double>(mna_.currentSourceDcValues())
        : bias;
}

std::vector<double>
TransientAnalysis::initialState(std::span<const double> bias) const
{
    const std::span<const double> at = biasOrDc(bias);
    requireSim(at.size() == n_src_,
               "transient: wrong number of bias current values");
    std::vector<double> sigma(rp_, 0.0);
    for (std::size_t s = 0; s < n_src_; ++s)
        for (std::size_t r = 0; r < rp_; ++r)
            sigma[r] += kbias_[s * rp_ + r] * at[s];
    return sigma;
}

TransientBlockStepper
TransientAnalysis::makeBlockStepper(
    std::span<const double> bias_currents,
    std::span<const std::size_t> probe_indices) const
{
    return TransientBlockStepper(*this, bias_currents, probe_indices);
}

TransientBlockStepper::TransientBlockStepper(
    const TransientAnalysis &engine,
    std::span<const double> bias_currents,
    std::span<const std::size_t> probe_indices)
    : engine_(engine), rp_(engine.rp_), n_src_(engine.n_src_),
      np_(probe_indices.size()),
      probes_(probe_indices.begin(), probe_indices.end())
{
    constexpr std::size_t k = kStreamBlock;
    const std::size_t n = engine.mna_.size();
    for (const std::size_t p : probes_)
        requireConfig(p < n, "block stepper probe index out of range");

    // F = [T W; Γ M^k] over z = [U | σ], gathered from the engine's
    // tables: output row j·np_ + p is probe p after step j + 1, with
    // T's block (j, m) = H_{j-m} for m ≤ j (zero above the diagonal)
    // and W's row block j = C·M^j; the state rows follow.
    const std::size_t n_in = k * n_src_;
    rows_ = k * np_ + rp_;
    cols_ = n_in + rp_;
    f_.assign(rows_ * cols_, 0.0);
    y0_.resize(np_);
    for (std::size_t p = 0; p < np_; ++p) {
        const std::size_t i = probes_[p];
        y0_[p] = engine.y0_[i];
        for (std::size_t j = 0; j < k; ++j) {
            const std::size_t row = j * np_ + p;
            for (std::size_t m = 0; m <= j; ++m)
                for (std::size_t s = 0; s < n_src_; ++s)
                    f_[(m * n_src_ + s) * rows_ + row] =
                        engine.hrow_[((j - m) * n + i) * n_src_ + s];
            for (std::size_t c = 0; c < rp_; ++c)
                f_[(n_in + c) * rows_ + row] =
                    engine.crow_[(j * n + i) * rp_ + c];
        }
    }
    for (std::size_t c = 0; c < n_in; ++c)
        std::copy_n(engine.gam_.data() + c * rp_, rp_,
                    f_.data() + c * rows_ + k * np_);
    for (std::size_t c = 0; c < rp_; ++c)
        std::copy_n(engine.mk_.data() + c * rp_, rp_,
                    f_.data() + (n_in + c) * rows_ + k * np_);

    const std::vector<double> sigma = engine.initialState(bias_currents);
    z_.assign(cols_, 0.0);
    std::copy(sigma.begin(), sigma.end(), z_.begin()
                  + static_cast<std::ptrdiff_t>(n_in));
    out_.assign(rows_, 0.0);
    next_.assign(rp_, 0.0);
}

TransientBlockStepper::TransientBlockStepper(
    TransientBlockStepper &&other) noexcept
    : engine_(other.engine_), rp_(other.rp_), n_src_(other.n_src_),
      np_(other.np_), rows_(other.rows_), cols_(other.cols_),
      probes_(std::move(other.probes_)), f_(std::move(other.f_)),
      y0_(std::move(other.y0_)), z_(std::move(other.z_)),
      out_(std::move(other.out_)), next_(std::move(other.next_)),
      time_(other.time_), steps_taken_(other.steps_taken_),
      pending_steps_(other.pending_steps_),
      pending_blocks_(other.pending_blocks_)
{
    other.pending_steps_ = 0;
    other.pending_blocks_ = 0;
}

TransientBlockStepper::~TransientBlockStepper()
{
    flushMetrics();
}

void
TransientBlockStepper::flushMetrics()
{
    auto &reg = metrics::Registry::instance();
    if (pending_steps_ > 0) {
        reg.add("circuit.transient.steps", pending_steps_);
        reg.add("circuit.transient.state_updates", pending_steps_);
    }
    // Single-step callers (a closed loop) never fill a block and
    // leave the block counter unset.
    if (pending_blocks_ > 0)
        reg.add("circuit.transient.stream_blocks", pending_blocks_);
    pending_steps_ = 0;
    pending_blocks_ = 0;
}

void
TransientBlockStepper::stepBlock(const double *currents,
                                 std::size_t count, double *probe_out)
{
    constexpr std::size_t k = kStreamBlock;
    requireSim(count >= 1 && count <= k,
               "stepBlock count must be 1..kStreamBlock");
    const std::size_t n_in = k * n_src_;
    double *sigma = z_.data() + n_in;
    if (count == k) {
        // One mat-vec yields the block's probe outputs and the next
        // state; the input columns come first, so only the last
        // sweeps wait on the previous block's state.
        std::copy_n(currents, n_in, z_.data());
        matVecAxpy(f_.data(), z_.data(), out_.data(), rows_, cols_);
        for (std::size_t r = 0; r < k * np_; ++r)
            probe_out[r] = y0_[r % np_] + out_[r];
        std::copy_n(out_.data() + k * np_, rp_, sigma);
        ++pending_blocks_;
    } else {
        // Stream tail: the engine's single step.
        for (std::size_t c = 0; c < count; ++c) {
            const double *u = currents + c * n_src_;
            for (std::size_t p = 0; p < np_; ++p)
                probe_out[c * np_ + p] =
                    engine_.output(probes_[p], sigma, u);
            engine_.step(sigma, u, next_.data());
            std::copy(next_.begin(), next_.end(), sigma);
        }
    }
    time_ += engine_.dt_ * static_cast<double>(count);
    steps_taken_ += count;
    pending_steps_ += count;
}

} // namespace circuit
} // namespace emstress
