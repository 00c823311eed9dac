// small_vector<T, N>: vector with N elements of inline storage, for the dag's
// adjacency lists (out-degree is ≤ 2 in series-parallel dags, so edges almost
// never touch the heap). Restricted to trivially copyable T, which covers all
// users and keeps the relocation logic memcpy-simple.
#pragma once

#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

#include "support/assert.hpp"

namespace cilkpp {

template <typename T, std::size_t N>
class small_vector {
  static_assert(std::is_trivially_copyable_v<T>,
                "small_vector is specialized for trivially copyable types");
  static_assert(N > 0, "inline capacity must be nonzero");

 public:
  small_vector() = default;

  small_vector(const small_vector& other) { copy_from(other); }
  small_vector& operator=(const small_vector& other) {
    if (this != &other) {
      release();
      copy_from(other);
    }
    return *this;
  }

  small_vector(small_vector&& other) noexcept { steal_from(other); }
  small_vector& operator=(small_vector&& other) noexcept {
    if (this != &other) {
      release();
      steal_from(other);
    }
    return *this;
  }

  ~small_vector() { release(); }

  void push_back(const T& v) {
    if (size_ == capacity_) grow();
    data()[size_++] = v;
  }

  void pop_back() {
    CILKPP_ASSERT(size_ > 0, "pop_back on empty small_vector");
    --size_;
  }

  void clear() { size_ = 0; }

  /// Removes element i in O(1) by moving the last element into its place;
  /// does not preserve order.
  void swap_remove(std::size_t i) {
    CILKPP_ASSERT(i < size_, "swap_remove index out of range");
    data()[i] = data()[size_ - 1];
    --size_;
  }

  T& operator[](std::size_t i) {
    CILKPP_ASSERT(i < size_, "small_vector index out of range");
    return data()[i];
  }
  const T& operator[](std::size_t i) const {
    CILKPP_ASSERT(i < size_, "small_vector index out of range");
    return data()[i];
  }

  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }

  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

 private:
  T* data() { return heap_ ? heap_ : reinterpret_cast<T*>(inline_); }
  const T* data() const {
    return heap_ ? heap_ : reinterpret_cast<const T*>(inline_);
  }

  void grow() {
    const std::size_t new_cap = capacity_ * 2;
    T* fresh = new T[new_cap];
    std::memcpy(fresh, data(), size_ * sizeof(T));
    delete[] heap_;
    heap_ = fresh;
    capacity_ = new_cap;
  }

  void copy_from(const small_vector& other) {
    size_ = other.size_;
    if (other.heap_) {
      capacity_ = other.capacity_;
      heap_ = new T[capacity_];
      std::memcpy(heap_, other.heap_, size_ * sizeof(T));
    } else {
      capacity_ = N;
      heap_ = nullptr;
      copy_inline(other);
    }
  }

  void steal_from(small_vector& other) noexcept {
    size_ = other.size_;
    if (other.heap_) {
      capacity_ = other.capacity_;
      heap_ = other.heap_;
      other.heap_ = nullptr;
    } else {
      capacity_ = N;
      heap_ = nullptr;
      copy_inline(other);
    }
    other.size_ = 0;
    other.capacity_ = N;
  }

  /// Copies the whole inline buffer: a fixed-size copy of raw bytes, where
  /// a size_-bounded one trips GCC 12's -Warray-bounds (it cannot see that
  /// size_ <= N whenever the elements are inline).
  void copy_inline(const small_vector& other) {
    std::memcpy(inline_, other.inline_, sizeof(inline_));
  }

  void release() {
    delete[] heap_;
    heap_ = nullptr;
    capacity_ = N;
    size_ = 0;
  }

  alignas(T) unsigned char inline_[N * sizeof(T)];
  T* heap_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace cilkpp
