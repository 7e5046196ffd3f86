// alloc_hook.cpp — counting replacements for the global allocation functions.
//
// Built as the mobiwlan_alloc_hook OBJECT library and linked ONLY into
// binaries that want to measure heap traffic (`mobiwlan-bench --suite perf`
// and the zero-allocation regression tests). Linking this file replaces
// operator new/delete program-wide, so keep it out of everything else.
#include <cstdlib>
#include <new>

#include "util/alloc_count.hpp"

namespace {

const bool g_marked = [] {
  mobiwlan::detail::alloc_hook_mark_active();
  return true;
}();

void* counted_alloc(std::size_t n) {
  mobiwlan::detail::alloc_count_bump();
  if (n == 0) n = 1;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  mobiwlan::detail::alloc_count_bump();
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  mobiwlan::detail::alloc_count_bump();
  return std::malloc(n ? n : 1);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
