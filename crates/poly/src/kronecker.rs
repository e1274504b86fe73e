//! Kronecker-substitution polynomial multiplication.
//!
//! Evaluating an integer polynomial at `x = 2^w` packs its coefficients
//! into disjoint `w`-bit fields of one big integer; if `w` is wide
//! enough that no product coefficient overflows its field, one
//! big-integer multiplication followed by unpacking recovers the exact
//! polynomial product. This collapses the `(d_a+1)(d_b+1)` coefficient
//! loop onto the single integer kernel `rr_mp` has already made fast
//! (Karatsuba under `Profile::Fast`), making dense polynomial
//! multiplication subquadratic end-to-end. The packed product only does
//! *less* limb work than the coefficient loop when the integer kernel is
//! subquadratic, which is why `Fast` dispatches `Poly × Poly` here (above
//! the size crossover) and `Paper` never does.
//!
//! ## Slot width
//!
//! A product coefficient is `Σ_{i+j=k} a_i·b_j` — at most
//! `min(d_a,d_b)+1` terms, each below `2^(‖a‖+‖b‖)` in magnitude
//! (`‖·‖` = bit length of the largest coefficient). The field width
//!
//! ```text
//! w = ‖a‖ + ‖b‖ + ⌈log2(min(d_a,d_b)+1)⌉ + 1
//! ```
//!
//! therefore bounds every product coefficient *strictly* below
//! `2^(w−1)` in magnitude — the extra `+1` bit is what makes the signed
//! balanced representation below decodable.
//!
//! ## Sign handling: one multiplication in the balanced representation
//!
//! Packing is an unsigned evaluation, so each operand is split into its
//! positive and negative parts, `a = a⁺ − a⁻`, each part packed
//! unsigned, and the packed values subtracted: a *signed* integer
//! `A = a(2^w)` held as sign + magnitude (two linear-time packs and one
//! linear-time subtraction). One big multiplication then gives
//! `A·B = (a·b)(2^w)` exactly, and the product coefficients are read
//! back from `|A·B|` in the **balanced residue system**
//! ([`rr_mp::nat::unpack_slots_signed`]): since every product
//! coefficient satisfies `|c_k| < 2^(w−1)`, a field reading `≥ 2^(w−1)`
//! (after the borrow from the field below) can only be the residue
//! `c_k + 2^w` of a negative coefficient, decoded as `c_k` with a borrow
//! of `1` into the next field. A negative `A·B` decodes through the same
//! path with every sign flipped.
//!
//! The obvious alternative — four unsigned products
//! `a⁺b⁺, a⁻b⁻, a⁺b⁻, a⁻b⁺` — is exact too, but on dense mixed-sign
//! operands each part still packs to full length, so it does ~4× the
//! limb work; the balanced representation needs exactly one
//! multiplication (and one squaring for `a²`).
//!
//! ## The cost model is replayed, not bypassed
//!
//! The paper's figures count one model multiplication of cost
//! `‖a_i‖·‖b_j‖` per nonzero coefficient pair — what the schoolbook
//! loop records. The Kronecker path records *exactly those totals*
//! before it runs: the aggregate charge factorizes as
//! `(Σᵢ‖a_i‖)·(Σⱼ‖b_j‖)` over nonzero coefficients, recorded in one
//! bulk update ([`rr_mp::metrics::record_mul_bulk`]). The big packed
//! multiplication then goes through `rr_mp::nat` on raw magnitudes,
//! which records nothing. Predicted-vs-observed figures are therefore
//! bit-identical across profiles; what actually ran is
//! visible in the [`Exec::KroneckerMuls`] and [`Exec::PackedBits`]
//! counters and in the `"polymul"` span an
//! installed `rr-obs` recorder captures.

use crate::poly::Poly;
use rr_mp::limb::Limb;
use rr_mp::metrics::{self, Exec};
use rr_mp::{nat, Int, Sign};
use std::cmp::Ordering;

/// Minimum *nonzero* coefficient count of the sparser operand for the
/// Kronecker path to be dispatched by `Poly` multiplication. Below it,
/// packing overhead dominates and schoolbook wins — the schoolbook loop
/// skips zero coefficients, so sparse operands (the remainder stage's
/// monomial quotients, say) do far less work than their dense degree
/// suggests, and the gate must count the same way. Calibrated with
/// `cargo run --release -p rr-bench --bin kernel_ablation -- --sweep`
/// (see EXPERIMENTS.md "Kronecker crossover").
pub const KRONECKER_MIN_LEN: usize = 8;

/// Calibrated dispatch gate: is the Kronecker path expected to beat the
/// schoolbook loop for these operands? One allocation-free scan of the
/// coefficients. Exposed so callers forcing a kernel for differential
/// testing can also test the gate itself.
///
/// The crossover depends on **both** dimensions. Replacing `d²`
/// coefficient products of `m`-limb operands by one Karatsuba
/// multiplication of the two `≈ d·2m`-limb packed integers trades
/// `d²·m^χ` for `(2dm)^χ` with `χ = log2 3`, a win factor of
/// `≈ d^(2−χ) / 2^χ` — so the degree must outgrow the coefficient size:
/// `d ≳ 4·m^(3/5)` on the sweep's measurements (the tree stage's deep
/// levels, degree ≤ 8 with 10⁴–10⁵-bit coefficients, rightly never
/// dispatch; the product-tree regime, degree ≫ coefficient limbs,
/// always does). The integer form below uses `4⁵ = 1024` and
/// `m ≈ (‖a‖+‖b‖)/2` in limbs.
pub fn profitable(a: &Poly, b: &Poly) -> bool {
    let nnz = |p: &Poly| p.coeffs().iter().filter(|c| !c.is_zero()).count();
    let d = nnz(a).min(nnz(b));
    if d < KRONECKER_MIN_LEN {
        return false;
    }
    let limbs = (a.coeff_bits() + b.coeff_bits()).div_ceil(128).max(1);
    (d as u128).pow(5) >= 1024 * (limbs as u128).pow(3)
}

/// Nonzero-coefficient count and the sum of their bit lengths — the two
/// ingredients of the factorized model charge.
fn model_terms(p: &Poly) -> (u64, u64) {
    let mut count = 0u64;
    let mut bits = 0u64;
    for c in p.coeffs() {
        if !c.is_zero() {
            count += 1;
            bits += c.bit_len();
        }
    }
    (count, bits)
}

/// Records the schoolbook model charge for `a × b`: one multiplication
/// of cost `‖a_i‖·‖b_j‖` per pair of nonzero coefficients, exactly what
/// the schoolbook loop's zero-skipping double loop records.
fn record_model(a: &Poly, b: &Poly) {
    let (na, sa) = model_terms(a);
    let (nb, sb) = model_terms(b);
    metrics::record_mul_bulk(na * nb, sa.saturating_mul(sb));
}

/// Field width for the product `a × b` (see the module docs).
fn slot_width(a: &Poly, b: &Poly) -> u64 {
    let min_len = a.coeffs().len().min(b.coeffs().len()) as u64;
    debug_assert!(min_len >= 1);
    let ceil_log2 = u64::BITS as u64 - (min_len - 1).leading_zeros() as u64;
    a.coeff_bits() + b.coeff_bits() + ceil_log2 + 1
}

/// Positive/negative split of a polynomial as borrowed magnitude slots:
/// `pos[i]` is `|a_i|` where `a_i > 0` (else empty), `neg[i]` likewise
/// for `a_i < 0`.
fn split(p: &Poly) -> (Vec<&[Limb]>, Vec<&[Limb]>) {
    const EMPTY: &[Limb] = &[];
    let mut pos = Vec::with_capacity(p.coeffs().len());
    let mut neg = Vec::with_capacity(p.coeffs().len());
    for c in p.coeffs() {
        if c.is_negative() {
            pos.push(EMPTY);
            neg.push(c.magnitude());
        } else {
            pos.push(c.magnitude());
            neg.push(EMPTY);
        }
    }
    (pos, neg)
}

/// Packs the split parts into `out`, clearing it when the part has no
/// nonzero slot (an all-empty pack is the empty magnitude anyway, but
/// skipping avoids zero-filling the buffer).
fn pack_part_into(part: &[&[Limb]], w: u64, out: &mut Vec<Limb>) {
    if part.iter().all(|s| s.is_empty()) {
        out.clear();
    } else {
        nat::pack_slots_into(part, w, out);
    }
}

/// The signed evaluation `p(2^w)` written into `out` (a scratch buffer),
/// returning its sign: `pack(p⁺) − pack(p⁻)`, two packs and one linear
/// subtraction, with the negative part's pack buffer borrowed from the
/// scratch arena for the duration.
fn pack_signed_into(p: &Poly, w: u64, out: &mut Vec<Limb>) -> bool {
    let (pos, neg) = split(p);
    let limbs = (w * pos.len() as u64).div_ceil(u64::from(Limb::BITS)) as usize + 1;
    let mut pn = rr_mp::scratch::take(limbs);
    pack_part_into(&neg, w, &mut pn);
    pack_part_into(&pos, w, out);
    let negative = match nat::cmp(out, &pn) {
        Ordering::Greater => {
            nat::sub_assign(out, &pn);
            false
        }
        Ordering::Less => {
            nat::rsub_assign(out, &pn);
            true
        }
        Ordering::Equal => {
            out.clear();
            false
        }
    };
    rr_mp::scratch::put(pn);
    negative
}

/// Rebuilds signed coefficients from `|A·B|` via balanced unpacking;
/// `negate` flips every sign (the product integer was negative).
fn recombine(mag: &[Limb], negate: bool, w: u64, out_len: usize) -> Poly {
    let coeffs = nat::unpack_slots_signed(mag, w, out_len)
        .into_iter()
        .map(|(negative, m)| {
            if m.is_empty() {
                Int::zero()
            } else if negative != negate {
                Int::from_sign_mag(Sign::Negative, m)
            } else {
                Int::from_sign_mag(Sign::Positive, m)
            }
        })
        .collect();
    Poly::from_coeffs(coeffs)
}

/// `a × b` by Kronecker substitution, unconditionally (no profitability
/// gate, no fallback — callers wanting the calibrated dispatch go
/// through `Poly`'s `Mul`). Exact for any signed integer polynomials.
pub fn mul(a: &Poly, b: &Poly) -> Poly {
    if a.is_zero() || b.is_zero() {
        return Poly::zero();
    }
    record_model(a, b);
    let w = slot_width(a, b);
    let (la, lb) = (a.coeffs().len(), b.coeffs().len());
    let packed_bits = w * (la + lb) as u64;
    let _span = rr_obs::span("polymul", "kronecker")
        .with_arg("slot_bits", w)
        .with_arg("packed_bits", packed_bits);
    metrics::count(&[(Exec::KroneckerMuls, 1), (Exec::PackedBits, packed_bits)]);

    // All three big temporaries — both packed operands and the packed
    // product — cycle through the thread's scratch arena; only the
    // unpacked coefficients of the result are fresh allocations.
    let limbs = |len: usize| (w * len as u64).div_ceil(u64::from(Limb::BITS)) as usize + 1;
    let mut ma = rr_mp::scratch::take(limbs(la));
    let sa = pack_signed_into(a, w, &mut ma);
    let mut mb = rr_mp::scratch::take(limbs(lb));
    let sb = pack_signed_into(b, w, &mut mb);
    let mut prod = rr_mp::scratch::take(ma.len() + mb.len());
    nat::mul_auto_into(&ma, &mb, &mut prod);
    rr_mp::scratch::put(mb);
    rr_mp::scratch::put(ma);
    let out = recombine(&prod, sa != sb, w, la + lb - 1);
    rr_mp::scratch::put(prod);
    out
}

/// `a²` by Kronecker substitution, unconditionally: one packed
/// squaring (the sign of `a(2^w)` cancels).
pub fn square(a: &Poly) -> Poly {
    if a.is_zero() {
        return Poly::zero();
    }
    record_model(a, a);
    let w = slot_width(a, a);
    let la = a.coeffs().len();
    let packed_bits = w * (2 * la) as u64;
    let _span = rr_obs::span("polymul", "kronecker-square")
        .with_arg("slot_bits", w)
        .with_arg("packed_bits", packed_bits);
    metrics::count(&[(Exec::KroneckerMuls, 1), (Exec::PackedBits, packed_bits)]);

    let mut m = rr_mp::scratch::take(
        (w * la as u64).div_ceil(u64::from(Limb::BITS)) as usize + 1,
    );
    pack_signed_into(a, w, &mut m);
    let mut prod = rr_mp::scratch::take(2 * m.len());
    nat::sqr_auto_into(&m, &mut prod);
    rr_mp::scratch::put(m);
    let out = recombine(&prod, false, w, 2 * la - 1);
    rr_mp::scratch::put(prod);
    out
}
