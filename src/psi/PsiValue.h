//===- psi/PsiValue.h - PSI IR runtime values ------------------*- C++ -*-===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime values of the PSI-style probabilistic IR: exact rationals,
/// linear expressions over symbolic parameters, and nested tuples (used for
/// queue entries and queues themselves). This is the value domain of the
/// standalone probabilistic-programming backend that Bayonet programs are
/// translated into (paper Section 4).
///
//===----------------------------------------------------------------------===//

#ifndef BAYONET_PSI_PSIVALUE_H
#define BAYONET_PSI_PSIVALUE_H

#include "symbolic/LinExpr.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace bayonet {

/// An intrusively counted pointer to a shared T that is copied on write.
/// T holds `mutable std::atomic<uint32_t> Refs` (0 in a fresh or copied
/// T). unique() is an acquire load that pairs with the releasing
/// decrement of every other owner, so an owner that finds itself unique
/// may write in place: every earlier reader, on any thread, is done.
/// (std::shared_ptr::use_count is a relaxed load and gives no such
/// ordering.)
template <typename T> class CowPtr {
public:
  CowPtr() = default;
  template <typename... Args> static CowPtr make(Args &&...A) {
    CowPtr P;
    P.Ptr = new T(std::forward<Args>(A)...);
    P.Ptr->Refs.store(1, std::memory_order_relaxed);
    return P;
  }
  CowPtr(const CowPtr &O) : Ptr(O.Ptr) {
    if (Ptr)
      Ptr->Refs.fetch_add(1, std::memory_order_relaxed);
  }
  CowPtr(CowPtr &&O) noexcept : Ptr(std::exchange(O.Ptr, nullptr)) {}
  CowPtr &operator=(CowPtr O) noexcept {
    std::swap(Ptr, O.Ptr);
    return *this;
  }
  ~CowPtr() {
    if (Ptr && Ptr->Refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
      delete Ptr;
  }

  T *operator->() const { return Ptr; }
  T &operator*() const { return *Ptr; }
  explicit operator bool() const { return Ptr; }
  bool unique() const { return Ptr->Refs.load(std::memory_order_acquire) == 1; }
  friend bool operator==(const CowPtr &A, const CowPtr &B) {
    return A.Ptr == B.Ptr;
  }

private:
  T *Ptr = nullptr;
};

class PsiValue;

/// The elements of a tuple value, shared by every copy of the value.
struct PsiTuple {
  std::vector<PsiValue> Elems;
  mutable std::atomic<uint32_t> Refs{0};

  explicit PsiTuple(std::vector<PsiValue> E);
  PsiTuple(const PsiTuple &O);
  PsiTuple &operator=(const PsiTuple &) = delete;
  ~PsiTuple();
};

/// A PSI IR value: scalar (rational / linear expression) or tuple. Tuples
/// are shared copy-on-write: copying a value copies a pointer, and the
/// mutable elems() copies the elements only while another value still
/// shares them, so copying an environment block never walks its queues.
class PsiValue {
public:
  using Tuple = std::vector<PsiValue>;

  /// Constructs scalar zero.
  PsiValue() : Repr(Rational(0)) {}
  PsiValue(Rational R) : Repr(std::move(R)) {}
  PsiValue(int64_t V) : Repr(Rational(V)) {}
  /// Constant LinExprs normalize to the rational alternative.
  PsiValue(LinExpr E) {
    if (E.isConstant())
      Repr = E.constant();
    else
      Repr = std::move(E);
  }
  PsiValue(const PsiValue &O) : Repr(O.Repr), HashCache(O.cachedHash()) {}
  PsiValue(PsiValue &&O) noexcept
      : Repr(std::move(O.Repr)), HashCache(O.cachedHash()) {}
  PsiValue &operator=(const PsiValue &O) {
    Repr = O.Repr;
    HashCache.store(O.cachedHash(), std::memory_order_relaxed);
    return *this;
  }
  PsiValue &operator=(PsiValue &&O) noexcept {
    Repr = std::move(O.Repr);
    HashCache.store(O.cachedHash(), std::memory_order_relaxed);
    return *this;
  }
  static PsiValue tuple(Tuple Elems) {
    PsiValue V;
    V.Repr = TuplePtr::make(std::move(Elems));
    return V;
  }

  bool isRational() const { return std::holds_alternative<Rational>(Repr); }
  bool isSymbolic() const { return std::holds_alternative<LinExpr>(Repr); }
  bool isScalar() const { return !isTuple(); }
  bool isTuple() const { return std::holds_alternative<TuplePtr>(Repr); }

  /// \pre isRational()
  const Rational &rational() const { return std::get<Rational>(Repr); }
  /// \pre isScalar()
  LinExpr toLinExpr() const {
    if (isRational())
      return LinExpr(rational());
    return std::get<LinExpr>(Repr);
  }
  /// \pre isTuple()
  const Tuple &elems() const { return std::get<TuplePtr>(Repr)->Elems; }
  /// Mutable element access: unshares the elements and invalidates the
  /// cached structural hash (the only mutation path besides whole-value
  /// assignment, which replaces the cache together with the
  /// representation).
  Tuple &elems() {
    HashCache.store(0, std::memory_order_relaxed);
    TuplePtr &T = std::get<TuplePtr>(Repr);
    if (!T.unique())
      T = TuplePtr::make(*T);
    return T->Elems;
  }

  friend bool operator==(const PsiValue &A, const PsiValue &B) {
    // Filled caches of unequal values differ: fast-reject on mismatch.
    size_t HA = A.HashCache.load(std::memory_order_relaxed);
    size_t HB = B.HashCache.load(std::memory_order_relaxed);
    if (HA && HB && HA != HB)
      return false;
    if (A.Repr.index() != B.Repr.index())
      return false;
    if (A.isRational())
      return A.rational() == B.rational();
    if (A.isSymbolic())
      return std::get<LinExpr>(A.Repr) == std::get<LinExpr>(B.Repr);
    const TuplePtr &TA = std::get<TuplePtr>(A.Repr);
    const TuplePtr &TB = std::get<TuplePtr>(B.Repr);
    return TA == TB || TA->Elems == TB->Elems;
  }
  friend bool operator!=(const PsiValue &A, const PsiValue &B) {
    return !(A == B);
  }

  /// Structural hash, cached: environment-merge maps in the exact PSI
  /// interpreter hash whole variable frames on every probe, and deep tuple
  /// walks (queues of packet tuples) dominated that cost.
  size_t hash() const {
    if (size_t Cached = HashCache.load(std::memory_order_relaxed))
      return Cached;
    size_t H;
    if (isRational())
      H = rational().hash();
    else if (isSymbolic())
      H = std::get<LinExpr>(Repr).hash() * 2 + 1;
    else {
      H = 0x7a3f9d1b;
      for (const PsiValue &E : elems())
        H = H * 0x100000001b3ULL ^ E.hash();
    }
    if (!H)
      H = 0x7a3f9d1b; // 0 is the "not computed" sentinel.
    HashCache.store(H, std::memory_order_relaxed);
    return H;
  }

  /// Approximate heap footprint (shallow: tuple spine only; scalar digit
  /// storage is not walked, and shared tuples count once per value — the
  /// budget tracker's byte gauge only needs order-of-magnitude accuracy).
  size_t approxBytes() const {
    size_t B = sizeof(PsiValue);
    if (isTuple())
      for (const PsiValue &E : elems())
        B += E.approxBytes();
    return B;
  }

  std::string toString(const ParamTable &Params) const {
    if (isRational())
      return rational().toString();
    if (isSymbolic())
      return std::get<LinExpr>(Repr).toString(Params);
    std::string Out = "(";
    for (size_t I = 0; I < elems().size(); ++I) {
      if (I)
        Out += ", ";
      Out += elems()[I].toString(Params);
    }
    return Out + ")";
  }

private:
  using TuplePtr = CowPtr<PsiTuple>;
  size_t cachedHash() const {
    return HashCache.load(std::memory_order_relaxed);
  }
  std::variant<Rational, LinExpr, TuplePtr> Repr;
  /// Cached structural hash; 0 = not computed. Copied with the value (it
  /// stays valid for identical copies), reset by mutable elems() access.
  /// Relaxed atomic: a value shared by several lanes (inside a shared
  /// environment block or tuple) may be hashed by them at once, and every
  /// writer stores the same pure function of the structure.
  mutable std::atomic<size_t> HashCache{0};
};

inline PsiTuple::PsiTuple(std::vector<PsiValue> E) : Elems(std::move(E)) {}
inline PsiTuple::PsiTuple(const PsiTuple &O) : Elems(O.Elems) {}
inline PsiTuple::~PsiTuple() = default;

} // namespace bayonet

#endif // BAYONET_PSI_PSIVALUE_H
