include Vertex.Plane
