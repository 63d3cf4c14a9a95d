(* LRU via a logical clock: each resident page carries its last-touch
   stamp, eviction removes the minimum. Pool capacities in the
   experiments are small, so the linear eviction scan is irrelevant. *)

let m_hits =
  Simq_obs.Metrics.counter ~help:"Buffer-pool touches served from residence"
    "simq_buffer_pool_hits_total"

let m_misses =
  Simq_obs.Metrics.counter ~help:"Buffer-pool touches that read the page"
    "simq_buffer_pool_misses_total"

let m_evictions =
  Simq_obs.Metrics.counter ~help:"LRU evictions" "simq_buffer_pool_evictions_total"

type t = {
  capacity : int;
  stats : Io_stats.t;
  resident : (int, int) Hashtbl.t;  (* page id -> last-touch stamp *)
  mutable clock : int;
}

let create ~capacity ~stats =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity";
  {
    capacity;
    stats;
    resident = Hashtbl.create (2 * capacity);
    clock = 0;
  }

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun page stamp acc ->
        match acc with
        | Some (_, best) when best <= stamp -> acc
        | _ -> Some (page, stamp))
      t.resident None
  in
  match victim with
  | Some (page, _) ->
    Hashtbl.remove t.resident page;
    Simq_obs.Metrics.incr m_evictions
  | None -> ()

let touch ?budget t page =
  Simq_fault.Budget.page_read budget;
  t.clock <- t.clock + 1;
  if Hashtbl.mem t.resident page then begin
    Hashtbl.replace t.resident page t.clock;
    Io_stats.record_cache_hit t.stats;
    Simq_obs.Metrics.incr m_hits;
    `Hit
  end
  else begin
    Io_stats.record_page_read t.stats;
    Simq_obs.Metrics.incr m_misses;
    if Hashtbl.length t.resident >= t.capacity then evict_lru t;
    Hashtbl.replace t.resident page t.clock;
    `Miss
  end

let resident t = Hashtbl.length t.resident
let flush t = Hashtbl.reset t.resident
