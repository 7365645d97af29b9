package graph

// The reflection codec of io_test.go, for the benchmarks of package
// graph_test (which can import the generators).
var (
	OracleDecode = oracleDecode
	OracleEncode = oracleEncode
)
