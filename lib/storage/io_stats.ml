type t = {
  mutable page_reads : int;
  mutable cache_hits : int;
}

let create () = { page_reads = 0; cache_hits = 0 }
let record_page_read t = t.page_reads <- t.page_reads + 1
let record_cache_hit t = t.cache_hits <- t.cache_hits + 1
let page_reads t = t.page_reads
let cache_hits t = t.cache_hits

let reset t =
  t.page_reads <- 0;
  t.cache_hits <- 0
