// Typed handles over managed objects and the class-definition macros
// that stand in for the paper's bytecode transformer: a benchmark class
// declares its slots once and gets synchronized accessors generated.
//
//   class Account : public sbd::runtime::TypedRef<Account> {
//    public:
//     SBD_CLASS(Account, SBD_SLOT("balance"), SBD_SLOT_REF("owner"))
//     SBD_FIELD_I64(0, balance)
//     SBD_FIELD_REF(1, owner, Person)
//     static Account make() { return alloc(); }
//   };
//
// Handles are raw ManagedObject pointers; the conservative GC sees them
// in stack frames and registers, so no registration is needed.
#pragma once

#include <utility>

#include "runtime/field_access.h"
#include "runtime/heap.h"

namespace sbd::runtime {

template <typename Derived>
class TypedRef {
 public:
  TypedRef() = default;
  explicit TypedRef(ManagedObject* o) : o_(o) {}

  ManagedObject* raw() const { return o_; }
  explicit operator bool() const { return o_ != nullptr; }
  bool operator==(const TypedRef& other) const { return o_ == other.o_; }
  bool operator!=(const TypedRef& other) const { return o_ != other.o_; }
  bool is_null() const { return o_ == nullptr; }

  static Derived alloc() {
    return Derived(Heap::instance().alloc_object(Derived::klass()));
  }
  static Derived from_raw(ManagedObject* o) { return Derived(o); }

 protected:
  ManagedObject* o_ = nullptr;
};

// Typed array views.
class I64Array : public TypedRef<I64Array> {
 public:
  using TypedRef::TypedRef;
  static I64Array make(uint64_t len) {
    return I64Array(Heap::instance().alloc_array(ElemKind::kI64, len));
  }
  uint64_t length() const { return array_length(o_); }
  int64_t get(uint64_t i) const { return static_cast<int64_t>(tx_read_elem(o_, i)); }
  void set(uint64_t i, int64_t v) { tx_write_elem(o_, i, static_cast<uint64_t>(v)); }
  // Cached-context variants for hot loops (one TLS lookup per batch).
  int64_t get(core::ThreadContext& tc, uint64_t i) const {
    return static_cast<int64_t>(tx_read_elem(tc, o_, i));
  }
  void set(core::ThreadContext& tc, uint64_t i, int64_t v) {
    tx_write_elem(tc, o_, i, static_cast<uint64_t>(v));
  }
  // Section-scoped view of [lo, hi): read-locked once, plain loads after
  // (ArrayReadView in field_access.h).
  ArrayReadView<int64_t> read_view(core::ThreadContext& tc, uint64_t lo, uint64_t hi) const {
    return ArrayReadView<int64_t>(tc, o_, lo, hi);
  }
  void init_set(uint64_t i, int64_t v) { init_write_elem(o_, i, static_cast<uint64_t>(v)); }
  static ClassInfo* klass() { return array_class(ElemKind::kI64); }
};

class F64Array : public TypedRef<F64Array> {
 public:
  using TypedRef::TypedRef;
  static F64Array make(uint64_t len) {
    return F64Array(Heap::instance().alloc_array(ElemKind::kF64, len));
  }
  uint64_t length() const { return array_length(o_); }
  double get(uint64_t i) const {
    const uint64_t bits = tx_read_elem(o_, i);
    double d;
    __builtin_memcpy(&d, &bits, 8);
    return d;
  }
  void set(uint64_t i, double v) {
    uint64_t bits;
    __builtin_memcpy(&bits, &v, 8);
    tx_write_elem(o_, i, bits);
  }
  double get(core::ThreadContext& tc, uint64_t i) const {
    const uint64_t bits = tx_read_elem(tc, o_, i);
    double d;
    __builtin_memcpy(&d, &bits, 8);
    return d;
  }
  void set(core::ThreadContext& tc, uint64_t i, double v) {
    uint64_t bits;
    __builtin_memcpy(&bits, &v, 8);
    tx_write_elem(tc, o_, i, bits);
  }
  ArrayReadView<double> read_view(core::ThreadContext& tc, uint64_t lo, uint64_t hi) const {
    return ArrayReadView<double>(tc, o_, lo, hi);
  }
  static ClassInfo* klass() { return array_class(ElemKind::kF64); }
};

class ByteArray : public TypedRef<ByteArray> {
 public:
  using TypedRef::TypedRef;
  static ByteArray make(uint64_t len) {
    return ByteArray(Heap::instance().alloc_array(ElemKind::kI8, len));
  }
  uint64_t length() const { return array_length(o_); }
  int8_t get(uint64_t i) const { return tx_read_i8(o_, i); }
  void set(uint64_t i, int8_t v) { tx_write_i8(o_, i, v); }
  int8_t get(core::ThreadContext& tc, uint64_t i) const { return tx_read_i8(tc, o_, i); }
  void set(core::ThreadContext& tc, uint64_t i, int8_t v) { tx_write_i8(tc, o_, i, v); }
  void init_set(uint64_t i, int8_t v) { init_write_i8(o_, i, v); }
  static ClassInfo* klass() { return array_class(ElemKind::kI8); }
};

template <typename T>
class RefArray : public TypedRef<RefArray<T>> {
 public:
  using TypedRef<RefArray<T>>::TypedRef;
  static RefArray make(uint64_t len) {
    return RefArray(Heap::instance().alloc_array(ElemKind::kRef, len));
  }
  uint64_t length() const { return array_length(this->o_); }
  T get(uint64_t i) const {
    return T(reinterpret_cast<ManagedObject*>(tx_read_elem(this->o_, i)));
  }
  void set(uint64_t i, T v) {
    tx_write_elem(this->o_, i, reinterpret_cast<uint64_t>(v.raw()));
  }
  T get(core::ThreadContext& tc, uint64_t i) const {
    return T(reinterpret_cast<ManagedObject*>(tx_read_elem(tc, this->o_, i)));
  }
  void set(core::ThreadContext& tc, uint64_t i, T v) {
    tx_write_elem(tc, this->o_, i, reinterpret_cast<uint64_t>(v.raw()));
  }
  void init_set(uint64_t i, T v) {
    init_write_elem(this->o_, i, reinterpret_cast<uint64_t>(v.raw()));
  }
  static ClassInfo* klass() { return array_class(ElemKind::kRef); }
};

// --- Class definition macros -------------------------------------------------

#define SBD_SLOT(nm) \
  ::sbd::runtime::SlotDesc { nm, false, false }
#define SBD_SLOT_REF(nm) \
  ::sbd::runtime::SlotDesc { nm, true, false }
#define SBD_SLOT_FINAL(nm) \
  ::sbd::runtime::SlotDesc { nm, false, true }
#define SBD_SLOT_FINAL_REF(nm) \
  ::sbd::runtime::SlotDesc { nm, true, true }

// Declares the class's metadata singleton. Registration happens on
// first use, before any instance exists.
#define SBD_CLASS(Cls, ...)                                             \
  static ::sbd::runtime::ClassInfo* klass() {                           \
    static ::sbd::runtime::ClassInfo* ci =                              \
        ::sbd::runtime::register_class(#Cls, {__VA_ARGS__});            \
    return ci;                                                          \
  }                                                                     \
  using TypedRef::TypedRef;

#define SBD_CLASS_WITH_STATICS(Cls, slots, staticSlots)                       \
  static ::sbd::runtime::ClassInfo* klass() {                                 \
    static ::sbd::runtime::ClassInfo* ci =                                    \
        ::sbd::runtime::register_class(#Cls, slots, staticSlots);             \
    return ci;                                                                \
  }                                                                           \
  using TypedRef::TypedRef;

// Synchronized accessors per slot kind. Each non-final accessor has a
// cached-context overload taking the caller's ThreadContext&, so hot
// loops pay one TLS lookup per batch instead of one per field access.
#define SBD_FIELD_I64(idx, nm)                                                     \
  int64_t nm() const { return static_cast<int64_t>(::sbd::runtime::tx_read(o_, idx)); } \
  void set_##nm(int64_t v) { ::sbd::runtime::tx_write(o_, idx, static_cast<uint64_t>(v)); } \
  int64_t nm(::sbd::core::ThreadContext& tc) const {                               \
    return static_cast<int64_t>(::sbd::runtime::tx_read(tc, o_, idx));             \
  }                                                                                \
  void set_##nm(::sbd::core::ThreadContext& tc, int64_t v) {                       \
    ::sbd::runtime::tx_write(tc, o_, idx, static_cast<uint64_t>(v));               \
  }                                                                                \
  void init_##nm(int64_t v) { ::sbd::runtime::init_write(o_, idx, static_cast<uint64_t>(v)); }

#define SBD_FIELD_F64(idx, nm)                                       \
  double nm() const {                                                \
    const uint64_t bits = ::sbd::runtime::tx_read(o_, idx);          \
    double d;                                                        \
    __builtin_memcpy(&d, &bits, 8);                                  \
    return d;                                                        \
  }                                                                  \
  void set_##nm(double v) {                                          \
    uint64_t bits;                                                   \
    __builtin_memcpy(&bits, &v, 8);                                  \
    ::sbd::runtime::tx_write(o_, idx, bits);                         \
  }                                                                  \
  double nm(::sbd::core::ThreadContext& tc) const {                  \
    const uint64_t bits = ::sbd::runtime::tx_read(tc, o_, idx);      \
    double d;                                                        \
    __builtin_memcpy(&d, &bits, 8);                                  \
    return d;                                                        \
  }                                                                  \
  void set_##nm(::sbd::core::ThreadContext& tc, double v) {          \
    uint64_t bits;                                                   \
    __builtin_memcpy(&bits, &v, 8);                                  \
    ::sbd::runtime::tx_write(tc, o_, idx, bits);                     \
  }                                                                  \
  void init_##nm(double v) {                                         \
    uint64_t bits;                                                   \
    __builtin_memcpy(&bits, &v, 8);                                  \
    ::sbd::runtime::init_write(o_, idx, bits);                       \
  }

#define SBD_FIELD_REF(idx, nm, RefT)                                            \
  RefT nm() const {                                                             \
    return RefT(reinterpret_cast<::sbd::runtime::ManagedObject*>(               \
        ::sbd::runtime::tx_read(o_, idx)));                                     \
  }                                                                             \
  void set_##nm(RefT v) {                                                       \
    ::sbd::runtime::tx_write(o_, idx, reinterpret_cast<uint64_t>(v.raw()));     \
  }                                                                             \
  RefT nm(::sbd::core::ThreadContext& tc) const {                               \
    return RefT(reinterpret_cast<::sbd::runtime::ManagedObject*>(               \
        ::sbd::runtime::tx_read(tc, o_, idx)));                                 \
  }                                                                             \
  void set_##nm(::sbd::core::ThreadContext& tc, RefT v) {                       \
    ::sbd::runtime::tx_write(tc, o_, idx, reinterpret_cast<uint64_t>(v.raw())); \
  }                                                                             \
  void init_##nm(RefT v) {                                                      \
    ::sbd::runtime::init_write(o_, idx, reinterpret_cast<uint64_t>(v.raw()));   \
  }

#define SBD_FIELD_FINAL_I64(idx, nm)                                                 \
  int64_t nm() const { return static_cast<int64_t>(::sbd::runtime::read_final(o_, idx)); } \
  void init_##nm(int64_t v) { ::sbd::runtime::init_write(o_, idx, static_cast<uint64_t>(v)); }

#define SBD_FIELD_FINAL_REF(idx, nm, RefT)                                      \
  RefT nm() const {                                                             \
    return RefT(reinterpret_cast<::sbd::runtime::ManagedObject*>(               \
        ::sbd::runtime::read_final(o_, idx)));                                  \
  }                                                                             \
  void init_##nm(RefT v) {                                                      \
    ::sbd::runtime::init_write(o_, idx, reinterpret_cast<uint64_t>(v.raw()));   \
  }

// A global root holding a managed reference across GC (for statics-like
// globals in examples/benchmarks that are not class statics).
template <typename T>
class GlobalRoot {
 public:
  GlobalRoot() { Heap::instance().add_root(&obj_); }
  ~GlobalRoot() { Heap::instance().remove_root(&obj_); }
  GlobalRoot(const GlobalRoot&) = delete;
  GlobalRoot& operator=(const GlobalRoot&) = delete;

  T get() const { return T(obj_); }
  void set(T v) { obj_ = v.raw(); }

 private:
  ManagedObject* obj_ = nullptr;
};

}  // namespace sbd::runtime
