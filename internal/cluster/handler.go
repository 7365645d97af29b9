package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"distmwis/internal/server"
)

// Handler returns the coordinator's HTTP face: POST with a standard
// SolveRequest body, answering a cluster Response. The front maxisd mounts
// it at /v1/cluster/solve next to its own single-node API.
func (c *Coordinator) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		var req server.SolveRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, server.BadRequestStatus(err), "decode request: %v", err)
			return
		}
		resp, err := c.Solve(r.Context(), &req)
		if err != nil {
			var reqErr *RequestError
			if errors.As(err, &reqErr) {
				httpError(w, server.BadRequestStatus(err), "%s", reqErr.msg)
				return
			}
			httpError(w, http.StatusBadGateway, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	})
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(server.SolveResponse{
		Status: "failed",
		Error:  fmt.Sprintf(format, args...),
	})
}

// WriteMetrics appends the coordinator's Prometheus exposition lines; the
// front server splices this into its own /metrics output.
func (c *Coordinator) WriteMetrics(w io.Writer) {
	s := c.Stats()
	fmt.Fprintf(w, "# TYPE cluster_solves_total counter\ncluster_solves_total %d\n", s.Solves)
	fmt.Fprintf(w, "# TYPE cluster_solves_partitioned_total counter\ncluster_solves_partitioned_total %d\n", s.Partitioned)
	fmt.Fprintf(w, "# TYPE cluster_solves_whole_graph_total counter\ncluster_solves_whole_graph_total %d\n", s.WholeGraph)
	fmt.Fprintf(w, "# TYPE cluster_part_solves_total counter\ncluster_part_solves_total %d\n", s.PartSolves)
	fmt.Fprintf(w, "# TYPE cluster_reroutes_total counter\ncluster_reroutes_total %d\n", s.Reroutes)
	fmt.Fprintf(w, "# TYPE cluster_local_parts_total counter\ncluster_local_parts_total %d\n", s.LocalParts)
	fmt.Fprintf(w, "# TYPE cluster_local_fallbacks_total counter\ncluster_local_fallbacks_total %d\n", s.Fallbacks)
	fmt.Fprintf(w, "# TYPE cluster_cut_conflicts_total counter\ncluster_cut_conflicts_total %d\n", s.Conflicts)
	fmt.Fprintf(w, "# TYPE cluster_withdrawn_total counter\ncluster_withdrawn_total %d\n", s.Withdrawn)
	fmt.Fprintf(w, "# TYPE cluster_readmitted_total counter\ncluster_readmitted_total %d\n", s.Readmitted)
	fmt.Fprintf(w, "# TYPE cluster_floor_wins_total counter\ncluster_floor_wins_total %d\n", s.FloorWins)
	fmt.Fprintf(w, "# TYPE cluster_backends_alive gauge\ncluster_backends_alive %d\n", s.BackendsAlive)
	fmt.Fprintf(w, "# TYPE cluster_backends_total gauge\ncluster_backends_total %d\n", s.BackendsTotal)
	fmt.Fprintf(w, "# TYPE cluster_fanout_overhead_us gauge\ncluster_fanout_overhead_us %d\n", s.FanoutOverheadUS)
	fmt.Fprintf(w, "# TYPE cluster_cut_edges_total counter\ncluster_cut_edges_total %d\n", s.CutEdgesTotal)
	fmt.Fprintf(w, "# TYPE cluster_partition_cut_edges gauge\ncluster_partition_cut_edges %d\n", s.LastCutEdges)
	fmt.Fprintf(w, "# TYPE cluster_partition_size_imbalance_permille gauge\ncluster_partition_size_imbalance_permille %d\n", s.LastPartSizeImbalance)
	fmt.Fprintf(w, "# TYPE cluster_partition_weight_imbalance_permille gauge\ncluster_partition_weight_imbalance_permille %d\n", s.LastPartWeightImbalance)
}
