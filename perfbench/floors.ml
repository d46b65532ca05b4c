(* Hardware floors, measured in the same run as the workload so every
   layer can be reported as a multiple of the cost it cannot beat:
   a raw append+fsync, a raw positioned read of one block, and the
   Codec's encode/decode throughput over the run's own deltas.  (The
   loopback round-trip floor needs a server; serve-mixed measures it
   with Client.ping.) *)

module Codec = Cactis.Codec

(* p50 of append-64-bytes + fsync on a fresh file, µs. *)
let fsync_us ~dir ~reps =
  let path = Filename.concat dir "floor_fsync.bin" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let buf = Bytes.make 64 'f' in
  let s = Stats.create () in
  for _ = 1 to reps do
    Common.timed s (fun () ->
        ignore (Unix.write fd buf 0 64);
        Unix.fsync fd)
  done;
  Unix.close fd;
  Sys.remove path;
  Stats.quantile s 0.5

(* Median over batches of the mean cost of one positioned read of a
   [block_bytes] block (the file is freshly written, so reads come from
   the page cache — the same place the pager's block reads come from). *)
let block_read_us ~dir ~block_bytes =
  let blocks = 1024 in
  let path = Filename.concat dir "floor_blocks.bin" in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let buf = Bytes.make block_bytes 'b' in
  for _ = 1 to blocks do
    ignore (Unix.write fd buf 0 block_bytes)
  done;
  let rng = Cactis_util.Rng.create 3 in
  let batch = 256 in
  let s = Stats.create () in
  for _ = 1 to 40 do
    let t0 = Common.now_ns () in
    for _ = 1 to batch do
      let b = Cactis_util.Rng.int rng blocks in
      ignore (Unix.lseek fd (b * block_bytes) Unix.SEEK_SET);
      ignore (Unix.read fd buf 0 block_bytes)
    done;
    Stats.add s (Common.us_since t0 /. float_of_int batch)
  done;
  Unix.close fd;
  Sys.remove path;
  Stats.quantile s 0.5

(* MB/s (10^6 bytes) of Codec.encode_delta / decode_delta over
   [deltas], repeated until at least 50 ms of work was timed. *)
let codec_mb_s (deltas : Cactis.Txn.delta list) =
  if deltas = [] then (0.0, 0.0)
  else begin
    let encoded = List.map Codec.encode_delta deltas in
    let bytes = List.fold_left (fun a s -> a + String.length s) 0 encoded in
    let rate f =
      let t0 = Common.now_ns () in
      let passes = ref 0 in
      while !passes < 3 || Common.us_since t0 < 50_000. do
        f ();
        incr passes
      done;
      float_of_int (bytes * !passes) /. Common.us_since t0
    in
    let enc = rate (fun () -> List.iter (fun d -> ignore (Codec.encode_delta d)) deltas) in
    let dec = rate (fun () -> List.iter (fun s -> ignore (Codec.decode_delta s)) encoded) in
    (enc, dec)
  end

(* The floor metrics common to every workload; the codec floor runs
   over the last (at most 2000) deltas of [db]'s committed history. *)
let measure ~dir db =
  let history = List.map snd (Cactis.Db.history db) in
  let skip = max 0 (List.length history - 2000) in
  let enc, dec = codec_mb_s (List.filteri (fun i _ -> i >= skip) history) in
  [
    ("floor.fsync_us", fsync_us ~dir ~reps:300, "us");
    ("floor.block_read_us", block_read_us ~dir ~block_bytes:4096, "us");
    ("floor.codec_encode_mb_s", enc, "MB/s");
    ("floor.codec_decode_mb_s", dec, "MB/s");
  ]
