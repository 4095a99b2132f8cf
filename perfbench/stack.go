package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"metricdb"
	"metricdb/internal/admit"
	"metricdb/internal/msq"
	"metricdb/internal/wire"
)

// server is a wire server on a loopback listener.
type server struct {
	srv    *wire.Server
	addr   string
	served chan error
}

// startServer serves proc on a fresh loopback port. wrap, when non-nil,
// interposes on the listener. It returns once the server answers a ping.
func startServer(proc *msq.Processor, cfg wire.ServerConfig, wrap func(net.Listener) net.Listener) (*server, error) {
	srv, err := wire.NewServerWithConfig(proc, cfg)
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: srv, addr: lis.Addr().String(), served: make(chan error, 1)}
	if wrap != nil {
		lis = wrap(lis)
	}
	go func() { s.served <- srv.Serve(lis) }()
	c, err := wire.Dial(s.addr)
	if err == nil {
		err = c.Ping()
		c.Close() //nolint:errcheck // the ping already succeeded or failed
	}
	if err != nil {
		s.close() //nolint:errcheck // reporting the ping failure instead
		return nil, fmt.Errorf("server did not answer a ping: %w", err)
	}
	return s, nil
}

// close stops the server and waits for Serve to return.
func (s *server) close() error {
	err := s.srv.Close()
	if serr := <-s.served; !errors.Is(serr, net.ErrClosed) && err == nil {
		err = serr
	}
	return err
}

// serverConfig is the wire configuration: admission control with the
// default admit.Config, as msqserver -admit runs it. Batches bypass
// admission; the traced run's single queries go through it.
func serverConfig() wire.ServerConfig {
	return wire.ServerConfig{Admit: &admit.Config{}}
}

// publicStack is the system as a user runs it: a database opened with
// metricdb.Open or OpenStored and, on the wire workloads, a loopback
// server over db.Processor().
type publicStack struct {
	db  *metricdb.DB
	srv *server
}

// engineOf is the engine each workload runs on.
func engineOf(cfg config) metricdb.EngineKind {
	if cfg.kind == kindDBSCAN {
		return metricdb.EngineXTree
	}
	return metricdb.EngineScan
}

// openPublic opens the database and starts the server: the set-up that
// setup_s times.
func openPublic(cfg config, in *inputs) (*publicStack, error) {
	opts := metricdb.Options{Engine: engineOf(cfg)}
	var db *metricdb.DB
	var err error
	if cfg.kind == kindStored {
		db, err = metricdb.OpenStored(in.dir, opts)
	} else {
		db, err = metricdb.Open(in.items, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("opening database: %w", err)
	}
	st := &publicStack{db: db}
	if cfg.kind == kindBatch {
		if st.srv, err = startServer(db.Processor(), serverConfig(), nil); err != nil {
			db.Close() //nolint:errcheck // reporting the server failure instead
			return nil, err
		}
	}
	return st, nil
}

func (st *publicStack) close() error {
	var err error
	if st.srv != nil {
		err = st.srv.close()
	}
	return errors.Join(err, st.db.Close())
}

// knnSpecs turns query objects into wire k-NN queries with IDs from
// firstID on.
func knnSpecs(qs []metricdb.Vector, firstID uint64, k int) []wire.QuerySpec {
	specs := make([]wire.QuerySpec, len(qs))
	for i, q := range qs {
		specs[i] = wire.QuerySpec{ID: firstID + uint64(i), Vector: q, Kind: "knn", K: k}
	}
	return specs
}

// knnQueries turns query objects into k-NN queries with IDs 0..len-1.
func knnQueries(qs []metricdb.Vector, k int) []metricdb.Query {
	out := make([]metricdb.Query, len(qs))
	for i, q := range qs {
		out[i] = metricdb.Query{ID: uint64(i), Vec: q, Type: metricdb.KNNQuery(k)}
	}
	return out
}

// multiAll sends one multi_all batch on a fresh connection, so every batch
// runs in a fresh server-side session.
func multiAll(addr string, specs []wire.QuerySpec) ([][]wire.Answer, wire.Stats, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, wire.Stats{}, err
	}
	defer c.Close()
	return c.MultiAll(specs)
}

// fromWire converts wire answers to library answers.
func fromWire(as []wire.Answer) []metricdb.Answer {
	out := make([]metricdb.Answer, len(as))
	for i, a := range as {
		out[i] = metricdb.Answer{ID: metricdb.ItemID(a.ID), Dist: a.Dist}
	}
	return out
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
