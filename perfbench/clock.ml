(* CLOCK_MONOTONIC in nanoseconds.  The stub is the one bechamel ships;
   declaring the external here (unboxed, noalloc) keeps a clock read
   allocation-free without relying on cross-module inlining. *)
external now_int64 : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let[@inline] now () = Int64.to_int (now_int64 ())
