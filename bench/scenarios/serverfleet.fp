DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @feature AS SET (12, 36);

SELECT region,
       DemandModel(@current, @feature) * share AS regional_demand,
       local_capacity,
       CASE WHEN regional_demand > local_capacity THEN 1 ELSE 0 END AS strained
FROM regions;

GRAPH OVER @current
      EXPECT strained WITH bold red,
      EXPECT regional_demand WITH blue y2;
