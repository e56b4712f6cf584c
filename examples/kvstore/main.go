// kvstore: a key-value microservice whose RPC stack runs on the DPU while
// the store itself lives on the host — the paper's target deployment for
// business logic that should keep every host cycle (Sec. I).
//
// The GET/PUT/DELETE handlers receive arena-deserialized request objects
// (dpurpc.View) and never touch the wire format; the example prints the
// datapath statistics proving it.
package main

import (
	"fmt"
	"log"
	"sync"

	"dpurpc"
)

const schema = `
syntax = "proto3";
package kv;

message PutRequest {
  string key = 1;
  bytes value = 2;
}

message GetRequest {
  string key = 1;
}

message DeleteRequest {
  string key = 1;
}

message Entry {
  string key = 1;
  bytes value = 2;
  bool found = 3;
}

message StatsReply {
  uint64 entries = 1;
  uint64 puts = 2;
  uint64 gets = 3;
  uint64 hits = 4;
}

message Empty {}

service Store {
  rpc Put (PutRequest) returns (Empty);
  rpc Get (GetRequest) returns (Entry);
  rpc Delete (DeleteRequest) returns (Empty);
  rpc Stats (Empty) returns (StatsReply);
}
`

// store is the host-side business logic: a plain map under a mutex.
type store struct {
	mu         sync.Mutex
	data       map[string][]byte
	puts, gets uint64
	hits       uint64
}

func (st *store) impls(s *dpurpc.Schema) map[string]dpurpc.Impl {
	return map[string]dpurpc.Impl{
		"kv.Store": {
			"Put": func(req dpurpc.View) (*dpurpc.Message, uint16) {
				key := string(req.StrName("key"))
				if key == "" {
					return nil, 3 // INVALID_ARGUMENT
				}
				val := append([]byte(nil), req.StrName("value")...)
				st.mu.Lock()
				st.data[key] = val
				st.puts++
				st.mu.Unlock()
				return nil, 0
			},
			"Get": func(req dpurpc.View) (*dpurpc.Message, uint16) {
				key := string(req.StrName("key"))
				st.mu.Lock()
				val, ok := st.data[key]
				st.gets++
				if ok {
					st.hits++
				}
				st.mu.Unlock()
				out := s.NewMessage("kv.Entry")
				out.SetString("key", key)
				out.SetBool("found", ok)
				if ok {
					// By reference: Put stores a fresh copy and never
					// writes a stored value again, so val stays unchanged
					// until the response has posted.
					out.SetBytes("value", val)
				}
				return out, 0
			},
			"Delete": func(req dpurpc.View) (*dpurpc.Message, uint16) {
				st.mu.Lock()
				delete(st.data, string(req.StrName("key")))
				st.mu.Unlock()
				return nil, 0
			},
			"Stats": func(req dpurpc.View) (*dpurpc.Message, uint16) {
				st.mu.Lock()
				defer st.mu.Unlock()
				out := s.NewMessage("kv.StatsReply")
				out.SetUint64("entries", uint64(len(st.data)))
				out.SetUint64("puts", st.puts)
				out.SetUint64("gets", st.gets)
				out.SetUint64("hits", st.hits)
				return out, 0
			},
		},
	}
}

func main() {
	s, err := dpurpc.ParseSchema("kv.proto", schema)
	if err != nil {
		log.Fatal(err)
	}
	st := &store{data: map[string][]byte{}}
	stack, err := dpurpc.NewOffloadedStack(s, st.impls(s), dpurpc.StackOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()
	addr, err := stack.ListenAndServe("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("kvstore (offloaded) on", addr)

	client, err := dpurpc.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// Drive a small workload.
	for i := 0; i < 100; i++ {
		put := s.NewMessage("kv.PutRequest")
		put.SetString("key", fmt.Sprintf("user:%03d", i))
		put.SetBytes("value", []byte(fmt.Sprintf(`{"id":%d,"plan":"pro"}`, i)))
		if _, err := client.Call(s, "kv.Store", "Put", put); err != nil {
			log.Fatal(err)
		}
	}
	get := s.NewMessage("kv.GetRequest")
	get.SetString("key", "user:042")
	entry, err := client.Call(s, "kv.Store", "Get", get)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GET user:042 -> found=%v value=%s\n", entry.Bool("found"), entry.Bytes("value"))

	del := s.NewMessage("kv.DeleteRequest")
	del.SetString("key", "user:042")
	if _, err := client.Call(s, "kv.Store", "Delete", del); err != nil {
		log.Fatal(err)
	}
	entry, _ = client.Call(s, "kv.Store", "Get", get)
	fmt.Printf("GET user:042 after delete -> found=%v\n", entry.Bool("found"))

	statsResp, err := client.Call(s, "kv.Store", "Stats", s.NewMessage("kv.Empty"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("store: %d entries, %d puts, %d gets, %d hits\n",
		statsResp.Uint64("entries"), statsResp.Uint64("puts"),
		statsResp.Uint64("gets"), statsResp.Uint64("hits"))

	d := stack.Deployment()
	fmt.Printf("datapath: DPU deserialized %d messages (%d varint bytes, %d copied bytes); "+
		"PCIe moved %d bytes\n",
		d.DPUs[0].Stats().Deser.Messages,
		d.DPUs[0].Stats().Deser.VarintBytes,
		d.DPUs[0].Stats().Deser.CopyBytes,
		d.Link.TotalBytes())
}
